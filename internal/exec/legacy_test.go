package exec

import (
	"fmt"
	"sync"
	"time"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
)

// This file is the reference executor: the §3.2 protocol derived point by
// point — Addresser evaluation (FloorDiv per dimension per read) for every
// address, region walks for pack and unpack — with none of the compiled
// plans, the inbound-message table, tracing or checkpointing. It is the
// oracle the differential and property suites compare
// the planned executor against (Global bit for bit, mpi.Stats DeepEqual),
// so it shares the rank's static tables
// (newRankState: comm tables and the LDS) but no phase code with
// receive.go, plan.go or pack.go, and makes its own runtime calls.

// RunLegacy runs the program on the reference executor over a fresh
// in-process world, with blocking Sends or (overlap) Isends drained at
// chain end.
func (p *Program) RunLegacy(overlap bool) (*Global, mpi.Stats, error) {
	g := nanGlobal(p.lo, p.hi, p.Width)
	world := mpi.NewWorldOpts(p.Dist.NumProcs(), mpi.Options{})
	var (
		mu     sync.Mutex
		runErr error
	)
	werr := world.RunE(func(c *mpi.Comm) {
		if err := p.runRankLegacy(c, g, overlap); err != nil {
			mu.Lock()
			if runErr == nil {
				runErr = err
			}
			mu.Unlock()
		}
	})
	if runErr != nil {
		return nil, mpi.Stats{}, runErr
	}
	if werr != nil {
		return nil, mpi.Stats{}, werr
	}
	return g, world.Stats(), nil
}

// runRankLegacy is the reference rank body: RECEIVE, boundary-value
// injection, compute and SEND per tile, then write-back.
func (p *Program) runRankLegacy(c *mpi.Comm, g *Global, overlap bool) error {
	r := c.Rank()
	st, err := newRankState(p, r, RunOptions{})
	if err != nil {
		return err
	}
	var due time.Time // when the last overlapped send is due
	for t := int64(0); t < p.Dist.ChainLen[r]; t++ {
		tile := p.Dist.TileAt(r, t)
		if err := st.receivePhase(c, tile); err != nil {
			return err
		}
		st.initPhase(tile, t)
		st.computePhase(tile, t)
		if err := st.sendPhase(c, tile, overlap, &due); err != nil {
			return err
		}
	}
	time.Sleep(time.Until(due)) // the end of the chain waits for its overlapped sends
	st.writeBackPerPoint(g)
	return nil
}

// receivePhase implements the paper's RECEIVE: for every tile dependence
// d^S whose predecessor is valid and for which this tile is the
// lexicographically minimum successor along d^m(d^S), receive one message
// from processor pid − d^m and unpack it into the LDS, walking the
// predecessor's region point by point (commRegion) to size and to unpack.
func (st *rankState) receivePhase(c *mpi.Comm, tile ilin.Vec) error {
	d := st.p.Dist
	w := st.p.Width
	pr := d.Protocol()
	for _, si := range pr.DSOrder {
		di := pr.DSDir[si]
		if di < 0 {
			continue // same-processor dependence: data is already in the LDS
		}
		dS := st.p.TS.DS[si]
		dm := d.DM[di]
		pred := tile.Sub(dS)
		if !st.p.TS.ValidTile(pred) {
			continue
		}
		if ms, ok := d.MinSucc(pred, di); !ok || ms != si {
			continue
		}
		n := commRegion(d, pred, dm, nil)
		if n == 0 {
			continue
		}
		srcRank := st.RecvRank[di]
		if srcRank < 0 {
			return fmt.Errorf("exec: predecessor tile %v has no rank", pred)
		}
		buf := c.Recv(srcRank, di)
		if int64(len(buf)) != n*int64(w) {
			return fmt.Errorf("exec: rank %d tile %v: message from rank %d tag %d has %d values, expected %d", st.rank, tile, srcRank, di, len(buf), n*int64(w))
		}
		tau := pred[d.M] - d.ChainStart[st.rank]
		dmF := pr.DmFulls[di]
		i := 0
		commRegion(d, pred, dm, func(z, pp ilin.Vec) bool {
			cell := (st.Addr.Flat(pp, tau) + st.Addr.DirShift(dmF)) * int64(w)
			copy(st.la[cell:cell+int64(w)], buf[i:i+w])
			i += w
			return true
		})
	}
	return nil
}

// initPhase injects Initial values for reads that fall outside the
// iteration space, testing every read of every tile — no interior-tile
// shortcut, so a wrong compiled flag or boundary-read list shows up in the
// differential suites.
func (st *rankState) initPhase(tile ilin.Vec, t int64) {
	w := st.p.Width
	n := st.p.TS.T.N
	src := make(ilin.Vec, n)
	buf := make([]float64, w)
	tilePoints(st.p.TS, tile, func(z, jp ilin.Vec) bool {
		j := global(st.p.TS, tile, z)
		for l := range st.deps {
			for k := 0; k < n; k++ {
				src[k] = j[k] - st.deps[l][k]
			}
			if st.p.TS.Nest.Space.Contains(src) {
				continue
			}
			st.p.Initial(src, buf)
			cell := st.Addr.FlatRead(jp, st.dps[l], t) * int64(w)
			copy(st.la[cell:cell+int64(w)], buf)
		}
		return true
	})
}

// computePhase sweeps the tile's lattice points, reading each dependence
// through map(j'−d', t) and writing the result at map(j', t): every
// address goes through the Addresser's FloorDiv condensation.
func (st *rankState) computePhase(tile ilin.Vec, t int64) {
	w := st.p.Width
	q := len(st.deps)
	reads := make([][]float64, q)
	tilePoints(st.p.TS, tile, func(z, jp ilin.Vec) bool {
		for l := 0; l < q; l++ {
			cell := st.Addr.FlatRead(jp, st.dps[l], t) * int64(w)
			reads[l] = st.la[cell : cell+int64(w)]
		}
		j := global(st.p.TS, tile, z)
		out := st.Addr.Flat(jp, t) * int64(w)
		st.p.Kernel.treePoint(j, reads, st.la[out:out+int64(w)])
		return true
	})
}

// sendPhase implements the paper's SEND: one message per processor
// direction d^m with at least one valid successor tile, packing this
// tile's communication region point by point (commRegion, which sender
// and receiver evaluate identically, so contents pair up without
// headers). Each message gets a fresh buffer; in overlap mode the rank
// advances without waiting, and due is when its last send is due.
func (st *rankState) sendPhase(c *mpi.Comm, tile ilin.Vec, overlap bool, due *time.Time) error {
	d := st.p.Dist
	w := st.p.Width
	t := tile[d.M] - d.ChainStart[st.rank]
	for i, dm := range d.DM {
		if !d.HasSuccessor(tile, i) {
			continue
		}
		n := commRegion(d, tile, dm, nil)
		if n == 0 {
			continue
		}
		if st.SendRank[i] < 0 {
			return fmt.Errorf("exec: successor pid of tile %v along %v has no rank", tile, dm)
		}
		buf := make([]float64, int(n)*w)
		pos := 0
		commRegion(d, tile, dm, func(z, jp ilin.Vec) bool {
			cell := st.Addr.Flat(jp, t) * int64(w)
			copy(buf[pos:pos+w], st.la[cell:cell+int64(w)])
			pos += w
			return true
		})
		if overlap {
			*due = c.SendOwned(st.SendRank[i], i, buf, true)
		} else {
			c.Send(st.SendRank[i], i, buf)
		}
	}
	return nil
}

// writeBackPerPoint copies this rank's computed values to the global data
// space via the computer-owns rule, re-deriving every address.
func (st *rankState) writeBackPerPoint(g *Global) {
	w := st.p.Width
	for t := int64(0); t < st.p.Dist.ChainLen[st.rank]; t++ {
		tile := st.p.Dist.TileAt(st.rank, t)
		tilePoints(st.p.TS, tile, func(z, jp ilin.Vec) bool {
			j := global(st.p.TS, tile, z)
			cell := st.Addr.Flat(jp, t) * int64(w)
			g.Set(j, st.la[cell:cell+int64(w)])
			return true
		})
	}
}

// commRegion enumerates the §3.2 communication points of tile s along
// processor direction d^m point by point: the clamped lattice points whose
// TTIS coordinate satisfies j'_k ≥ cc_k on every non-mapping dimension where
// d^m is 1. fn may be nil to just count.
func commRegion(d *distrib.Distribution, s, dm ilin.Vec, fn func(z, jp ilin.Vec) bool) int64 {
	var count int64
	tilePoints(d.TS, s, func(z, jp ilin.Vec) bool {
		for k, i := 0, 0; k < len(jp); k++ {
			if k == d.M {
				continue
			}
			if dm[i] == 1 && jp[k] < d.TS.CC[k] {
				return true
			}
			i++
		}
		count++
		if fn != nil {
			return fn(z, jp)
		}
		return true
	})
	return count
}
