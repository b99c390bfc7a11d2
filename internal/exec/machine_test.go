package exec

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// adiProgram builds a small ADI-shaped program (dependences (1,0,0),
// (1,1,0), (1,0,1), two values per point) under the nr3 tiling of the
// paper's §4.3: both off-diagonal entries of the time row set.
func adiProgram(tb testing.TB) *Program {
	deps := ilin.MatFromRows([]int64{1, 1, 1}, []int64{0, 1, 0}, []int64{0, 0, 1})
	nest := mustBox(tb, []string{"t", "i", "j"}, []int64{1, 1, 1}, []int64{6, 8, 8}, deps)
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, 2))
	h.Set(0, 1, rat.New(-1, 2))
	h.Set(0, 2, rat.New(-1, 2))
	h.Set(1, 1, rat.New(1, 3))
	h.Set(2, 2, rat.New(1, 3))
	k := Statement(
		Add(Add(Read(0, 0), Mul(Const(0.5), Read(1, 1))), Const(1)),
		Add(Sub(Read(2, 0), Read(0, 1)), Const(0.25)))
	init := func(j ilin.Vec, out []float64) { out[0], out[1] = float64(j[1]+2*j[2]), 2 }
	return buildProgram(tb, nest, h, 0, 2, k, init)
}

// handStream is a (src, dst, tag) FIFO owned by the test: the wire of a
// world-free run.
type handStream struct{ src, dst, tag int }

// handRun drives every rank's machine with no world: outboxes go into
// test-owned FIFOs, and a seeded random order picks among the ranks that can
// step — the row next names is queued, or the slot is ready. With crash set,
// every rank snapshots every two slots, and the crash's rank sends its
// slot's whole outbox and crashes right behind it. It returns the global
// array and the number of messages and values offered.
func handRun(t *testing.T, p *Program, seed int64, crash *handCrash) (*Global, int64, int64) {
	t.Helper()
	var opt RunOptions
	if crash != nil {
		opt.Checkpoint = &CheckpointOptions{Every: 2}
	}
	n := p.Dist.NumProcs()
	states := make([]*rankState, n)
	for r := range states {
		states[r] = mustRankState(t, p, r, opt)
	}
	fifo := map[handStream][][]float64{}
	stream := func(st *rankState, row int) handStream {
		di := st.Msgs[row].Dir
		return handStream{st.RecvRank[di], st.rank, di}
	}
	rng := rand.New(rand.NewSource(seed))
	var msgs, vals int64
	crashed := false
	for {
		var ready []int
		for r, st := range states {
			slot, row := st.next()
			if slot < int64(len(st.Slots)) && (row < 0 || len(fifo[stream(st, row)]) > 0) {
				ready = append(ready, r)
			}
		}
		if len(ready) == 0 {
			break
		}
		st := states[ready[rng.Intn(len(ready))]]
		if slot, row := st.next(); row >= 0 {
			k := stream(st, row)
			data := fifo[k][0]
			fifo[k] = fifo[k][1:]
			msgs++
			vals += int64(len(data))
			if err := st.offer(row, data); err != nil {
				t.Fatal(err)
			}
		} else {
			st.fire()
			crashing := crash != nil && !crashed && st.rank == crash.rank && slot == crash.slot
			for _, m := range st.out {
				k := handStream{st.rank, m.dst, m.tag}
				fifo[k] = append(fifo[k], m.data)
			}
			if crashing {
				if st.ckpt.snap.NextTile == 0 {
					t.Fatalf("rank %d crashes at slot %d before any snapshot", st.rank, slot)
				}
				crashed = true
				st.crash()
			} else if st.snapshotDue() {
				st.snapshot()
			}
		}
	}
	if crash != nil && !crashed {
		t.Fatalf("rank %d never fired slot %d", crash.rank, crash.slot)
	}
	g := nanGlobal(p.lo, p.hi, p.Width)
	for _, st := range states {
		if slot, _ := st.next(); slot != int64(len(st.Slots)) {
			t.Fatalf("rank %d stuck at slot %d of %d: no rank can step", st.rank, slot, len(st.Slots))
		}
		st.writeBack(g)
	}
	for k, q := range fifo {
		if len(q) != 0 {
			t.Fatalf("stream %+v ends with %d messages never offered", k, len(q))
		}
	}
	return g, msgs, vals
}

// handCrash is where handRun crashes a rank: right after sending slot's
// outbox.
type handCrash struct {
	rank int
	slot int64
}

// TestRankCoresByHand steps the rank machines of a small SOR nr and a small
// ADI nr3 program with no mpi.World: the result must be RunSequential's bit
// for bit, and the messages and values offered exactly RunParallel's Stats —
// also across a crash right behind a slot's sends, whose re-execution must
// send none of them again.
func TestRankCoresByHand(t *testing.T) {
	for name, p := range map[string]*Program{"sor-nr": planProgram(t), "adi-nr3": adiProgram(t)} {
		t.Run(name, func(t *testing.T) {
			seq, err := p.RunSequential()
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := p.RunParallelOpts(RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// The crash: a slot past the first snapshot that sends twice or
			// more, the one with the most messages claimed since its snapshot
			// (held payloads the restore must re-apply). Its sends are in
			// flight when the rank crashes.
			crash := &handCrash{}
			held := 0
			for r := 0; r < p.Dist.NumProcs(); r++ {
				rp := mustPlan(t, p, r)
				for ti, sl := range rp.Slots {
					n, snap := 0, int64(ti-ti%2)
					for _, m := range rp.Msgs {
						if m.T >= snap && m.T <= int64(ti) {
							n++
						}
					}
					if ti >= 2 && len(sl.Sends) >= 2 && n > held {
						crash.rank, crash.slot, held = r, int64(ti), n
					}
				}
			}
			if held == 0 {
				t.Fatal("no slot past the first snapshot sends twice and holds a payload — the crash case needs another geometry")
			}
			for _, c := range []*handCrash{nil, crash} {
				for seed := int64(1); seed <= 3; seed++ {
					g, msgs, vals := handRun(t, p, seed, c)
					if msgs != stats.Messages || vals != stats.Values {
						t.Fatalf("crash=%v seed %d: offered %d messages / %d values, RunParallel sent %d / %d", c != nil, seed, msgs, vals, stats.Messages, stats.Values)
					}
					p.ScanSpace(func(j ilin.Vec) bool {
						for i, v := range seq.At(j) {
							if math.Float64bits(v) != math.Float64bits(g.At(j)[i]) {
								t.Fatalf("crash=%v seed %d: value %d at %v is %v, RunSequential has %v", c != nil, seed, i, j, g.At(j)[i], v)
							}
						}
						return true
					})
				}
			}
			// offer accepts only the row next names: a row of the slot's own
			// stream behind it, or of a later slot, is refused.
			for r := 0; r < p.Dist.NumProcs(); r++ {
				st := mustRankState(t, p, r, RunOptions{})
				if len(st.Msgs) < 2 {
					continue
				}
				_, named := st.next()
				for row := range st.Msgs {
					if row == named {
						continue
					}
					data := make([]float64, st.Msgs[row].Runs.Total*int64(p.Width))
					if err := st.offer(row, data); err == nil || !strings.Contains(err.Error(), "out of order") {
						t.Fatalf("rank %d: offer of row %d while next names row %d: err = %v", r, row, named, err)
					}
				}
				return
			}
			t.Fatal("no rank receives two messages — the out-of-order case needs another geometry")
		})
	}
}
