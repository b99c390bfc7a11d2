// Command tilec is the tiling compiler CLI: it reads a loop-nest
// specification (DSL source, JSON, or one of the paper's workloads as
// internal/apps defines them), prints the complete compile-time analysis —
// tiling cone, H' and its Hermite normal form, strides, communication
// vector, tile dependencies, LDS layout — and emits the generated C+MPI
// program.
//
// Usage:
//
//	tilec -src loop.nest [-o out.c] [-report] [-sim] [-verify]
//	tilec -spec nest.json [-o out.c] [-report] [-sim] [-verify]
//	tilec -app sor -space 100,200 -factors 50,38,10 -family nr [-o out.c]
//
// A DSL source or a built-in app carries its kernel: the generated C prints
// the statement the executor runs. A JSON spec gives the kernel as C text
// instead — a statement block that fills out[0..width) from the dependence
// reads R0…R{q-1}, as codegen.Options.KernelStmt describes. Spec format:
//
//	{
//	  "name":   "sor",
//	  "vars":   ["t", "i", "j"],
//	  "lo":     [1, 1, 1],
//	  "hi":     [10, 10, 10],
//	  "constraints": [{"coef": [1, -1, 0], "rhs": 0}],
//	  "deps":   [[0,1,0], [0,0,1]],
//	  "skew":   [[1,0,0], [1,1,0], [2,0,1]],
//	  "tiling": {"rect": [8,8,8]} | {"rows": [["1/8","0","0"], ...]} | {"edges": [[...], ...]},
//	  "mapdim": 2,
//	  "width":  1,
//	  "kernel": "out[0] = 0.25*(R0[0]+R1[0]);",
//	  "initial": "out[0] = 0.0;"
//	}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tilespace/internal/compile"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/opt"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

type specTiling struct {
	Rect  []int64    `json:"rect,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
	Edges [][]int64  `json:"edges,omitempty"`
}

type spec struct {
	Name        string       `json:"name"`
	Vars        []string     `json:"vars"`
	Lo          []int64      `json:"lo,omitempty"`
	Hi          []int64      `json:"hi,omitempty"`
	Constraints []constraint `json:"constraints,omitempty"`
	Deps        [][]int64    `json:"deps"`
	Skew        [][]int64    `json:"skew,omitempty"`
	Tiling      specTiling   `json:"tiling"`
	MapDim      *int         `json:"mapdim,omitempty"`
	Width       int          `json:"width,omitempty"`
	Kernel      string       `json:"kernel,omitempty"`
	Initial     string       `json:"initial,omitempty"`
}

type constraint struct {
	Coef []int64 `json:"coef"`
	Rhs  int64   `json:"rhs"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tilec: "+format+"\n", args...)
	os.Exit(1)
}

func parseInts(s string) []int64 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			fail("bad integer list %q: %v", s, err)
		}
		out[i] = v
	}
	return out
}

func main() {
	var (
		specPath = flag.String("spec", "", "JSON loop-nest specification file ('-' for stdin)")
		srcPath  = flag.String("src", "", "loop-nest source file in the textual notation ('-' for stdin)")
		appName  = flag.String("app", "", "built-in workload: sor, jacobi, adi")
		space    = flag.String("space", "", "built-in space size, e.g. 100,200")
		factors  = flag.String("factors", "", "tile factors x,y,z for built-ins")
		family   = flag.String("family", "rect", "tiling family for built-ins: rect, nr, nr1, nr2, nr3")
		out      = flag.String("o", "", "write generated C to this file (default stdout)")
		report   = flag.Bool("report", true, "print the compile-time analysis report")
		sim      = flag.Bool("sim", false, "simulate on the FastEthernet/PIII cluster model")
		emit     = flag.Bool("emit", true, "emit the generated C program")
		doVerify = flag.Bool("verify", false, "statically certify the compiled program (comm exactness, deadlock-freedom, LDS bounds) before emission")
		suggest  = flag.Bool("suggest", false, "search rectangular and cone-derived tilings and report the ranking")
		gantt    = flag.Bool("gantt", false, "render a per-processor timeline of the simulated execution")
	)
	flag.Parse()
	inputs := 0
	for _, in := range []string{*srcPath, *specPath, *appName} {
		if in != "" {
			inputs++
		}
	}
	if inputs != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var art *compile.Artifact
	var err error
	switch {
	case *srcPath != "":
		art, err = build(fromSource(*srcPath))
	case *specPath != "":
		art, err = build(fromSpec(*specPath))
	default:
		art, err = build(fromBuiltin(*appName, parseInts(*space), parseInts(*factors), *family))
	}
	if err != nil {
		fail("%v", err)
	}

	if *report {
		fmt.Fprintln(os.Stderr, art.Report())
	}
	if *doVerify {
		rep, err := art.Certificate()
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintln(os.Stderr, rep)
	}
	if *suggest {
		runSuggest(art.Prog.TS.Nest)
	}
	par := simnet.FastEthernetPIII()
	par.Width = art.Width
	if *sim {
		res, err := simnet.Simulate(art.Prog.Dist, par)
		if err != nil {
			fail("simulate: %v", err)
		}
		fmt.Fprintf(os.Stderr, "simulated: %d procs, %d tiles, %d steps, makespan %.4fs, speedup %.2f, util %.0f%%, %d msgs / %d bytes\n",
			res.Procs, res.Tiles, res.Steps, res.Makespan, res.Speedup, res.Utilization*100, res.Messages, res.BytesSent)
	}
	if *gantt {
		tr, err := simnet.SimulateTraced(art.Prog.Dist, par, nil)
		if err != nil {
			fail("gantt: %v", err)
		}
		fmt.Fprint(os.Stderr, tr.Gantt(100))
		crit, idle := tr.CriticalRank()
		fmt.Fprintf(os.Stderr, "critical rank %d idle %.0f%% of its makespan\n", crit, idle*100)
	}
	if !*emit {
		return
	}
	src, err := art.C()
	if err != nil {
		fail("%v", err)
	}
	if *out == "" {
		fmt.Print(src)
		return
	}
	if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
		fail("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, len(src))
}

// build compiles the spec an input reader returned.
func build(spec compile.Spec, err error) (*compile.Artifact, error) {
	if err != nil {
		return nil, err
	}
	return compile.Compile(spec)
}

// runSuggest reruns the tile-shape search for the compiled nest and
// prints the ranking (the paper's experiment, automated).
func runSuggest(nest *loopnest.Nest) {
	res, err := opt.Search(nest, opt.Options{Params: simnet.FastEthernetPIII(), MapDim: -1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tilec: suggest: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "tile-shape search (%d candidates):\n", len(res.Candidates))
	top := res.Candidates
	if len(top) > 6 {
		top = top[:6]
	}
	for _, c := range top {
		fmt.Fprintf(os.Stderr, "  %-5s factors %-12s tile %6d procs %4d steps %4d predicted speedup %6.2f\n",
			c.Family, fmt.Sprint(c.Factors), c.TileSize, c.Procs, c.Estimate.Steps, c.Estimate.Speedup)
	}
}

// readInput reads a file, or stdin for "-".
func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// fromSource reads a program written in the textual loop-nest notation
// (internal/frontend): bounds, dependencies, kernel, skew, tiling and mapping
// dimension all come from the source file.
func fromSource(path string) (compile.Spec, error) {
	data, err := readInput(path)
	return compile.Spec{Source: string(data)}, err
}

// fromSpec reads a JSON spec. Its kernel is C text only, so the program
// gets a no-op kernel, for analysis; a spec without one still analyzes
// (-emit=false), and emission alone is refused rather than given a
// placeholder that would compile to a silently wrong program.
func fromSpec(path string) (compile.Spec, error) {
	data, err := readInput(path)
	if err != nil {
		return compile.Spec{}, err
	}
	// Exactly one object of the spec's schema: a misspelt field would
	// otherwise be silently defaulted and compile a different program.
	var sp spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return compile.Spec{}, fmt.Errorf("parse spec: %w", err)
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return compile.Spec{}, fmt.Errorf("parse spec: trailing data after the JSON object")
	}
	if len(sp.Vars) == 0 {
		return compile.Spec{}, fmt.Errorf("spec needs vars")
	}
	if len(sp.Lo) != len(sp.Hi) || len(sp.Lo) > 0 && len(sp.Lo) != len(sp.Vars) {
		return compile.Spec{}, fmt.Errorf("spec has %d lo and %d hi bounds for %d vars", len(sp.Lo), len(sp.Hi), len(sp.Vars))
	}
	sys := poly.NewSystem(len(sp.Vars))
	for k := range sp.Lo {
		sys.AddRange(k, sp.Lo[k], sp.Hi[k])
	}
	for _, c := range sp.Constraints {
		if len(c.Coef) != len(sp.Vars) {
			return compile.Spec{}, fmt.Errorf("constraint arity %d, nest depth %d", len(c.Coef), len(sp.Vars))
		}
		sys.Add(poly.NewConstraint(ilin.NewVec(c.Coef...).Rat(), rat.FromInt(c.Rhs)))
	}
	deps, err := loopnest.DepMatrix(sp.Deps)
	if err != nil {
		return compile.Spec{}, err
	}
	nest, err := loopnest.New(sp.Vars, sys, deps)
	if err != nil {
		return compile.Spec{}, err
	}
	if len(sp.Skew) > 0 {
		skew, err := ilin.IntMat(sp.Skew)
		if err != nil {
			return compile.Spec{}, fmt.Errorf("skew: %w", err)
		}
		if nest, err = nest.Skew(skew); err != nil {
			return compile.Spec{}, err
		}
	}

	var t *tiling.Transform
	switch {
	case len(sp.Tiling.Rect) > 0:
		t, err = tiling.Rectangular(sp.Tiling.Rect...)
	case len(sp.Tiling.Rows) > 0:
		var h *ilin.RatMat
		if h, err = ilin.ParseRatMat(sp.Tiling.Rows); err == nil {
			t, err = tiling.New(h)
		}
	case len(sp.Tiling.Edges) > 0:
		var p *ilin.Mat
		if p, err = ilin.IntMat(sp.Tiling.Edges); err == nil {
			t, err = tiling.FromP(p)
		}
	default:
		err = fmt.Errorf("spec needs a tiling (rect, rows or edges)")
	}
	if err != nil {
		return compile.Spec{}, err
	}
	mapDim := -1
	if sp.MapDim != nil {
		mapDim = *sp.MapDim
	}
	return compile.Spec{
		Nest: nest, H: t.H, MapDim: mapDim, Width: sp.Width,
		KernelC: sp.Kernel, InitialC: sp.Initial, Name: sp.Name,
	}, nil
}
