package exec

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/poly"
	"tilespace/internal/tiling"
)

// Initial supplies the value vector of points outside the iteration space
// (boundary and initial conditions); the paper's experiments read such
// points through every dependence that crosses the space boundary. It must
// be a pure function of j, safe for concurrent calls: every rank, every
// crash re-execution and both sequential references evaluate it
// independently and are compared bit for bit, and the executor evaluates it
// once per Program and replays the values on every run.
type Initial func(j ilin.Vec, out []float64)

// Program is a compiled tiled program ready for sequential or parallel
// execution. The compiled §3.2 protocol the executor interprets lives on
// Dist (distrib/protocol.go): built on first use, shared read-only by every
// later run, concurrent ones included — and by the certifier and simulator.
type Program struct {
	TS      *tiling.TiledSpace
	Dist    *distrib.Distribution
	Width   int
	Kernel  Kernel
	Initial Initial

	// Constants of the nest, computed once: the bounding box every Global is
	// allocated over and the loop bounds every space scan walks.
	lo, hi ilin.Vec
	bounds *poly.NestBounds
	// inits[r] is rank r's boundary values (plan.go), compiled on the rank's
	// first run. idle[r] holds one rank state whose run finished, for the
	// next run to take (newRankState): an owner the garbage collector cannot
	// empty, so a Program that has run keeps one run's rank states.
	inits []rankInit
	idle  []atomic.Pointer[rankState]
	// holes are the box cells off the space as (first value, count) runs
	// of a Global's data, compiled on the first NewGlobal.
	holesOnce sync.Once
	holes     []int64
}

// NewProgram validates and assembles a program. The mapping dimension is
// chosen automatically (the longest tile dimension, §3.1) when m < 0.
func NewProgram(ts *tiling.TiledSpace, m int, width int, kernel Kernel, initial Initial) (*Program, error) {
	if width <= 0 {
		return nil, fmt.Errorf("exec: width must be positive")
	}
	if kernel.IsZero() {
		return nil, fmt.Errorf("exec: kernel is required")
	}
	if err := kernel.check(width, ts.Nest.Q()); err != nil {
		return nil, err
	}
	if initial == nil {
		initial = func(j ilin.Vec, out []float64) {
			for i := range out {
				out[i] = 0
			}
		}
	}
	if m < 0 {
		m = distrib.ChooseMappingDim(ts)
	}
	d, err := distrib.New(ts, m)
	if err != nil {
		return nil, err
	}
	p := &Program{TS: ts, Dist: d, Width: width, Kernel: kernel, Initial: initial, inits: make([]rankInit, d.NumProcs()), idle: make([]atomic.Pointer[rankState], d.NumProcs())}
	if p.lo, p.hi, err = ts.Nest.BoundingBox(); err != nil {
		return nil, err
	}
	if p.bounds, err = ts.Nest.Bounds(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewGlobal allocates a Global over the program's bounding box, NaN on the
// cells off the iteration space and zero on the space, whose every cell the
// caller writes: a run's write-back, RunSequential's rows, procrun's merge.
// That write-back reaches every space cell is proved, not left to a NaN
// fill to show: the certifier rejects a plan that computes an iteration
// twice or not at all. The cells off the space are compiled on first use,
// as the runs between consecutive space rows; NewProgram does no such work.
func (p *Program) NewGlobal() *Global {
	g := allocGlobal(p.lo, p.hi, p.Width)
	p.holesOnce.Do(func() {
		var next int64
		p.bounds.ScanRows(func(x ilin.Vec, cnt int64) bool {
			at := g.index(x)
			if at > next {
				p.holes = append(p.holes, next, at-next)
			}
			next = at + cnt*int64(p.Width)
			return true
		})
		if end := int64(len(g.data)); end > next {
			p.holes = append(p.holes, next, end-next)
		}
	})
	nan := math.NaN()
	for i := 0; i < len(p.holes); i += 2 {
		hole := g.data[p.holes[i]:][:p.holes[i+1]]
		for k := range hole {
			hole[k] = nan
		}
	}
	return g
}

// RunSequential executes the program in the original lexicographic order
// (all dependences are lexicographically positive) and returns the filled
// global data space: the baseline of every speedup and the reference of
// every run. It sweeps a row at a time along the innermost dimension e. A
// dependence whose source lies in another row reads that row of the Global,
// the sources inside the (convex) space being one interval
// (poly.LineInterval), the ends outside coming from Initial; a dependence
// c·e reads the row itself c points back, under the executor's hazard rule
// (rowEval.row). Each value is the per-point order's, bit for bit.
func (p *Program) RunSequential() (*Global, error) {
	g := p.NewGlobal()
	n, q, w := p.TS.T.N, p.TS.Nest.Q(), int64(p.Width)
	last := n - 1
	maxRow := p.hi[last] - p.lo[last] + 1
	ev := newRowEval(p.Kernel, p.Width, n, q, int(maxRow))
	cons := p.TS.Nest.Space.Cons
	// inner[l] is c > 0 for a dependence c·e, 0 for one that reads another
	// row; back is the largest c.
	deps := make([]ilin.Vec, q)
	inner := make([]int64, q)
	var back int64
	for l := range deps {
		deps[l] = p.TS.Nest.Dep(l)
		if !deps[l][:last].IsZero() {
			continue
		}
		inner[l] = deps[l][last]
		back = max(back, inner[l])
	}
	// own holds the back points before the row, then the row's results,
	// which are copied to the Global.
	own := make([]float64, (back+maxRow)*w)
	ends := make([]float64, int64(q)*maxRow*w) // per dependence, a row of reads with outside ends
	step := make(ilin.Vec, n)
	step[last] = 1
	src := make(ilin.Vec, n)
	p.bounds.ScanRows(func(x ilin.Vec, cnt int64) bool {
		hazard := int64(math.MaxInt64)
		for l, dep := range deps {
			for k := range src {
				src[k] = x[k] - dep[k]
			}
			if c := inner[l]; c > 0 {
				for i := int64(0); i < min(c, cnt); i++ {
					p.Initial(src, own[(back-c+i)*w:][:w])
					src[last]++
				}
				ev.reads[l] = own[(back-c)*w:][:cnt*w]
				hazard = min(hazard, c)
				continue
			}
			lo, hi := poly.LineInterval(cons, src, step, cnt)
			if lo == 0 && hi == cnt {
				ev.reads[l] = g.Row(src, cnt)
				continue
			}
			buf := ends[int64(l)*maxRow*w:][:cnt*w]
			first := src[last]
			for i := int64(0); i < cnt; i++ {
				src[last] = first + i
				if i < lo || i >= hi {
					p.Initial(src, buf[i*w:][:w])
				} else if i == lo {
					copy(buf[lo*w:], g.Row(src, hi-lo))
				}
			}
			ev.reads[l] = buf
		}
		copy(ev.j, x)
		out := own[back*w:][:cnt*w]
		ev.row(p.Kernel, cnt, hazard, out, step)
		copy(g.Row(x, cnt), out)
		return true
	})
	return g, nil
}

// ScanSpace enumerates the iteration space (convenience for comparisons).
func (p *Program) ScanSpace(fn func(j ilin.Vec) bool) {
	p.bounds.Scan(fn)
}

// ScanSpaceRows enumerates the iteration space a row at a time: fn receives
// the first point of each innermost segment and its length, in
// lexicographic order.
func (p *Program) ScanSpaceRows(fn func(j ilin.Vec, n int64) bool) {
	p.bounds.ScanRows(fn)
}
