package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/codegen"
	"tilespace/internal/cone"
	"tilespace/internal/distrib"
	"tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/opt"
	"tilespace/internal/schedule"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
	"tilespace/internal/verify"
)

// unit is one loop nest × tiling to compile: either a DSL source (which
// enters through frontend.Parse) or a shipped app with one of its tiling
// families.
type unit struct {
	name    string
	source  string // DSL text; empty for a shipped app
	app     *apps.App
	h       *ilin.RatMat
	kernelC string // the C statement codegen needs for a shipped app
	fixed   bool   // same on every seed: has golden values, counts into exact metrics
}

// compiled is what one trip through the pipeline produced.
type compiled struct {
	prog *exec.Program
	rep  *verify.Report // nil unless certified
	code string         // empty unless emitted
}

// Span names of the pipeline phases, in order. The front half is what
// `tilec -emit=false` and a cold /v1/analyze pay.
const (
	spanParse    = "frontend.Parse"
	spanCone     = "cone.ExtremeRays"
	spanAnalyze  = "tiling.Analyze"
	spanDistrib  = "distrib.New"
	spanProgram  = "exec.NewProgram"
	spanCertify  = "verify.Certify"
	spanGenerate = "codegen.Generate"
)

var frontSpans = []string{spanParse, spanCone, spanAnalyze, spanDistrib, spanProgram}

// compileUnit runs parse → cone → tiling.Analyze → distrib.New →
// exec.NewProgram → [verify.Certify] → [codegen] on u, one span per
// phase under parent.
func compileUnit(u unit, rec *recorder, parent, run int, certify, emit bool) (*compiled, error) {
	var err error
	fail := func(phase string) (*compiled, error) { return nil, fmt.Errorf("%s: %s: %w", u.name, phase, err) }

	// What the later phases need, from the parsed source or the app.
	var (
		nest    *loopnest.Nest
		h       = u.h
		mapDim  int
		width   int
		kernel  exec.Kernel
		initial exec.Initial
		kernelC = u.kernelC
	)
	if u.source != "" {
		var p *frontend.Program
		rec.time(spanParse, parent, run, func() { p, err = frontend.Parse(u.source) })
		if err != nil {
			return fail("parse")
		}
		if p.Tiling == nil {
			return nil, fmt.Errorf("%s: source has no tile directive", u.name)
		}
		nest, h, mapDim, width, kernel, kernelC = p.Nest, p.Tiling, p.MapDim, p.Width, p.Kernel, p.KernelC
	} else {
		nest, mapDim, width, kernel, initial = u.app.Nest, u.app.MapDim, u.app.Width, u.app.Kernel, u.app.Initial
	}

	legal := false
	rec.time(spanCone, parent, run, func() {
		c := cone.New(nest.Deps)
		if _, err = c.ExtremeRays(); err == nil {
			legal = c.LegalTiling(h)
		}
	})
	if err != nil {
		return fail("cone")
	}
	if !legal {
		return nil, fmt.Errorf("%s: tiling is outside the tiling cone", u.name)
	}
	var ts *tiling.TiledSpace
	rec.time(spanAnalyze, parent, run, func() { ts, err = tiling.Analyze(nest, h) })
	if err != nil {
		return fail("analyze")
	}
	rec.time(spanDistrib, parent, run, func() {
		if mapDim < 0 { // no map directive: the longest tile dimension, as exec.NewProgram picks
			mapDim = distrib.ChooseMappingDim(ts)
		}
		_, err = distrib.New(ts, mapDim)
	})
	if err != nil {
		return fail("distrib")
	}
	out := &compiled{}
	rec.time(spanProgram, parent, run, func() { out.prog, err = exec.NewProgram(ts, mapDim, width, kernel, initial) })
	if err != nil {
		return fail("program")
	}
	if certify {
		rec.time(spanCertify, parent, run, func() { out.rep, err = verify.Certify(ts, out.prog.Dist) })
		if err != nil {
			return fail("certify")
		}
	}
	if emit {
		rec.time(spanGenerate, parent, run, func() {
			var g *codegen.Generator
			if g, err = codegen.New(out.prog.Dist, codegen.Options{Name: u.name, Width: width, KernelStmt: kernelC}); err == nil {
				out.code = g.Generate()
			}
		})
		if err != nil {
			return fail("codegen")
		}
	}
	return out, nil
}

// compileLayers turns the pipeline spans of a traced pass into the
// compile-phase layer metrics: the median over runs of each phase's
// summed time. (exec.NewProgram builds a distribution of its own, so its
// line contains a second distrib.New; the phases still partition the
// pass.)
func compileLayers(out samples, self map[int]map[string]float64) {
	for _, m := range []struct{ metric, span string }{
		{"frontend.parse_s", spanParse}, {"cone.rays_s", spanCone},
		{"tiling.analyze_s", spanAnalyze}, {"distrib.new_s", spanDistrib}, {"exec.newprogram_s", spanProgram},
		{"verify.certify_s", spanCertify}, {"codegen.generate_s", spanGenerate},
	} {
		v, n := medianSelf(self, m.span)
		out.set(m.metric, v, n)
	}
	var front, total []float64
	for _, byName := range self {
		if _, ok := byName[spanAnalyze]; !ok {
			continue
		}
		f := 0.0
		for _, name := range frontSpans {
			f += byName[name]
		}
		front = append(front, f)
		total = append(total, f+byName[spanCertify]+byName[spanGenerate])
	}
	out.set("compile.analyze_s", median(front), len(front))
	out.set("compile.total_s", median(total), len(total))
}

// compileCounts reports the exact size counts of the compiled programs;
// proved edges and code size only of those certified and emitted.
func compileCounts(out samples, cs []*compiled) {
	var tiles, points, ranks, edges, bytes int64
	certified, emitted := 0, 0
	for _, c := range cs {
		tiles += c.prog.TS.NumTiles()
		points += c.prog.TS.TotalPoints()
		ranks += int64(c.prog.Dist.NumProcs())
		if c.rep != nil {
			edges += c.rep.Messages
			certified++
		}
		if c.code != "" {
			bytes += int64(len(c.code))
			emitted++
		}
	}
	out.set("tiling.tiles", float64(tiles), len(cs))
	out.set("tiling.points", float64(points), len(cs))
	out.set("distrib.ranks", float64(ranks), len(cs))
	out.set("verify.edges", float64(edges), certified)
	out.set("codegen.bytes", float64(bytes), emitted)
}

// suiteKernels are the C statements of the shipped apps (the ones tilec's
// built-ins emit), needed because apps.App carries only the Go kernel.
var suiteKernels = map[string]string{
	"sor":    "out[0] = 0.3*(R0[0] + R1[0] + R2[0] + R3[0]) - 0.2*R4[0];",
	"jacobi": "out[0] = 0.2*(R0[0] + R1[0] + R2[0] + R3[0] + R4[0]);",
	"adi": "double a = 0.05; out[0] = R0[0] + R2[0]*a/R2[1] - R1[0]*a/R1[1]; " +
		"out[1] = R0[1] - a*a/R2[1] - a*a/R1[1];",
	"heat3d": "out[0] = (R0[0] + R1[0] + R2[0] + R3[0] + R4[0] + R5[0] + R6[0])/7.0;",
}

// shippedUnits builds the nine app × tiling-family configurations the
// repository ships (the ones CI certifies with tilec -verify, plus the
// 4-D heat nest).
func shippedUnits(small bool) ([]unit, error) {
	n, hn := int64(24), int64(8)
	if small {
		n, hn = 12, 4
	}
	var units []unit
	for _, cfg := range []struct {
		app     func() (*apps.App, error)
		x, y, z int64
		nonRect bool
	}{
		{func() (*apps.App, error) { return apps.SOR(8, n) }, 2, 4, 4, true},
		{func() (*apps.App, error) { return apps.Jacobi(8, n) }, 2, 4, 4, true},
		{func() (*apps.App, error) { return apps.ADI(8, n) }, 2, 6, 6, true},
		{func() (*apps.App, error) { return apps.Heat3D(6, hn) }, 2, 2, 2, false},
	} {
		a, err := cfg.app()
		if err != nil {
			return nil, err
		}
		fams := []apps.TilingFamily{a.Rect}
		if cfg.nonRect {
			fams = append(fams, a.NonRect...)
		}
		for _, f := range fams {
			units = append(units, unit{
				name: a.Name + "_" + f.Name, app: a, h: f.H(cfg.x, cfg.y, cfg.z),
				kernelC: suiteKernels[a.Name], fixed: true,
			})
		}
	}
	return units, nil
}

// drawnUnits generates DSL sources from the seed: 2-D heat and 3-D SOR
// templates whose sizes, tile factors and coefficients are drawn. The
// ranges are narrow on purpose, so that two seeds give different inputs
// but nearly the same amount of work.
func drawnUnits(seed int64, count int, small bool) []unit {
	rng := rand.New(rand.NewSource(seed))
	pick := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	units := make([]unit, count)
	for i := range units {
		var b strings.Builder
		if i%2 == 0 {
			m, n := pick(7, 9), pick(44, 52)
			if small {
				n = pick(14, 18)
			}
			fmt.Fprintf(&b, "let M = %d\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\n", m, n)
			fmt.Fprintf(&b, "A[t,i] = 0.%d*(A[t-1,i] + A[t,i-1]) + %d\n", pick(3, 6), pick(1, 9))
			fmt.Fprintf(&b, "tile 1/%d 0 / 0 1/%d\n", pick(2, 3), pick(4, 6))
			units[i] = unit{name: fmt.Sprintf("heat2d_%d", i), source: b.String()}
			continue
		}
		m, n := pick(5, 6), pick(13, 15)
		if small {
			m, n = 4, pick(7, 8)
		}
		fmt.Fprintf(&b, "let M = %d\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\nfor j = 1 .. N\n", m, n)
		fmt.Fprintf(&b, "A[t,i,j] = 0.%d*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) - 0.%d*A[t-1,i,j]\n",
			pick(2, 3), pick(1, 3))
		b.WriteString("skew 1 0 0 / 1 1 0 / 2 0 1\n")
		x, y, z := pick(2, 3), pick(4, 5), 4
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "tile 1/%d 0 0 / 0 1/%d 0 / 0 0 1/%d\n", x, y, z)
		} else {
			fmt.Fprintf(&b, "tile 1/%d 0 0 / 0 1/%d 0 / -1/%d 0 1/%d\n", x, y, z, z)
		}
		b.WriteString("map 3\n")
		units[i] = unit{name: fmt.Sprintf("sor3d_%d", i), source: b.String()}
	}
	return units
}

func codeHash(code string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(code)))[:16] }

// suite is the compile_suite workload: no execution, only the compiler.
type suite struct {
	units []unit
	// first holds the warm-up pass's outputs; every later pass must
	// reproduce its code hashes, sizes and proved-edge counts exactly.
	first []*compiled
	adi   unit
}

func setupSuite(cfg config, rec *recorder) (instance, error) {
	fixed, err := shippedUnits(cfg.small)
	if err != nil {
		return nil, err
	}
	s := &suite{units: append(fixed, drawnUnits(cfg.seed, 8, cfg.small)...)}
	for _, u := range fixed {
		if u.name == "adi_nr1" {
			s.adi = u
		}
	}
	root := rec.begin("setup", -1, 0)
	defer rec.end(root)
	if s.first, err = s.pass(rec, root, 0); err != nil {
		return nil, err
	}
	for i, u := range s.units {
		c := s.first[i]
		if u.fixed {
			got := fmt.Sprintf("%s bytes=%d edges=%d", codeHash(c.code), len(c.code), c.rep.Messages)
			if err := cfg.checkGolden("compile_suite/"+u.name, got); err != nil {
				return nil, err
			}
			continue
		}
		// A drawn nest has no committed expectation; its reference is the
		// plain sequential interpreter, which shares nothing with the
		// tiled parallel program the compiler produced.
		ref, err := c.prog.RunSequential()
		if err != nil {
			return nil, fmt.Errorf("%s: sequential reference: %w", u.name, err)
		}
		g, _, err := c.prog.RunParallelOpts(exec.RunOptions{Overlap: true, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: compiled program: %w", u.name, err)
		}
		if d, at := ref.MaxAbsDiff(g, c.prog.ScanSpace); d != 0 {
			return nil, fmt.Errorf("%s: compiled program differs from the sequential reference by %g at %v", u.name, d, at)
		}
	}
	return s, nil
}

// pass compiles, certifies and emits every unit once.
func (s *suite) pass(rec *recorder, parent, run int) ([]*compiled, error) {
	out := make([]*compiled, len(s.units))
	for i, u := range s.units {
		id := rec.begin("unit:"+u.name, parent, run)
		c, err := compileUnit(u, rec, id, run, true, true)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// checkedPass is one operation: a pass whose outputs must repeat.
func (s *suite) checkedPass(rec *recorder, run int) error {
	root := rec.begin("compile_suite.pass", -1, run)
	cs, err := s.pass(rec, root, run)
	rec.end(root)
	if err != nil {
		return err
	}
	for i, c := range cs {
		f := s.first[i]
		if c.code != f.code || c.rep.Messages != f.rep.Messages || c.rep.Checks != f.rep.Checks {
			return fmt.Errorf("%s: output changed between passes (code %s→%s, edges %d→%d)",
				s.units[i].name, codeHash(f.code), codeHash(c.code), f.rep.Messages, c.rep.Messages)
		}
	}
	return nil
}

func (s *suite) measure(budget time.Duration) timed {
	return closedLoop(budget, func(int) (time.Duration, error) {
		return timeOp(func() error { return s.checkedPass(nil, 0) })
	})
}

func (s *suite) layers(budget time.Duration, rec *recorder) (samples, timed) {
	run := 0
	t := closedLoop(budget*2/3, func(int) (time.Duration, error) {
		run++
		return timeOp(func() error { return s.checkedPass(rec, run) })
	})
	out := samples{}
	self := rec.selfTimes()
	delete(self, 0) // set-up's warm-up pass is not a sample
	compileLayers(out, self)
	var fixed []*compiled
	for i, u := range s.units {
		if u.fixed {
			fixed = append(fixed, s.first[i])
		}
	}
	compileCounts(out, fixed)

	// The cost models and the tile-shape search share the compiler's
	// data structures but sit on no end-to-end path of this benchmark;
	// they are timed so that a re-fit of the models has a base.
	ts, err := tiling.Analyze(s.adi.app.Nest, s.adi.h)
	if err == nil {
		var d *distrib.Distribution
		if d, err = distrib.New(ts, s.adi.app.MapDim); err == nil {
			par := simnet.FastEthernetPIII()
			par.Width = s.adi.app.Width
			run++
			rec.time("simnet.Simulate", -1, run, func() { _, err = simnet.Simulate(d, par) })
			if err == nil {
				out.set("schedule.steps", float64(schedule.PipelinedLength(d)), 1)
				rec.time("opt.Search", -1, run, func() {
					_, err = opt.Search(s.adi.app.Nest, opt.Options{Params: par, MapDim: -1})
				})
			}
			self = rec.selfTimes()
			out.set("simnet.simulate_s", self[run]["simnet.Simulate"], 1)
			out.set("opt.search_s", self[run]["opt.Search"], 1)
		}
	}
	if err != nil {
		t.fail(fmt.Errorf("cost-model probes: %w", err))
	}
	return out, t
}

func (s *suite) close() {}
