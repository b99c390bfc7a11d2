package serve

import (
	"sync"
	"sync/atomic"

	"tilespace/internal/mpi"
)

// poolPerKey bounds how many idle worlds of one (size, transport) the
// pool retains; beyond it returned worlds are closed and dropped. In-
// flight runs are bounded by admission control, so the pool never needs
// more than maxInFlight worlds per key anyway — this just caps the idle
// set.
const poolPerKey = 8

// poolKey identifies one reuse class. Worlds are only interchangeable
// within a transport family: a TCP-backed world owns sockets and mesh
// goroutines a channel world doesn't, and handing a client the wrong
// family would silently change what "run over tcp" means.
type poolKey struct {
	size      int
	transport string // handleRun's validated "channel" or "tcp"
}

// worldPool recycles mpi Worlds by rank count and transport. A World's
// construction cost (mailboxes, counters, barrier — plus listener and
// link goroutines for TCP) scales with its size; a hot spec served
// thousands of times reuses the same few worlds instead. The executor
// Resets a pooled world under each run's options before any rank starts
// (see exec.RunOptions.World), so a pooled world is bit-identical in
// behaviour to a fresh one — even after a previous run on it aborted,
// and (the mpi reset battery asserts) even over TCP with frames still
// in flight at the abort.
type worldPool struct {
	mu      sync.Mutex
	free    map[poolKey][]*mpi.World
	created atomic.Int64
	reused  atomic.Int64
}

func newWorldPool() *worldPool {
	return &worldPool{free: map[poolKey][]*mpi.World{}}
}

// get returns a world of exactly size ranks on the requested transport,
// reusing an idle one when available.
func (p *worldPool) get(size int, transport string) (*mpi.World, error) {
	k := poolKey{size, transport}
	p.mu.Lock()
	if ws := p.free[k]; len(ws) > 0 {
		w := ws[len(ws)-1]
		p.free[k] = ws[:len(ws)-1]
		p.mu.Unlock()
		p.reused.Add(1)
		return w, nil
	}
	p.mu.Unlock()
	if transport == "tcp" {
		w, err := mpi.NewTCPWorld(size, mpi.Options{})
		if err != nil {
			return nil, err
		}
		p.created.Add(1)
		return w, nil
	}
	p.created.Add(1)
	return mpi.NewWorld(size), nil
}

// put returns a world to the pool, under the transport it was got for,
// once its run has fully finished (RunE returned, so no rank or NIC
// goroutine is alive on it). A world the pool has no room for is Closed,
// not leaked: TCP worlds hold a listener and per-link goroutines that the
// GC alone would never release.
func (p *worldPool) put(w *mpi.World, transport string) {
	k := poolKey{w.Size(), transport}
	p.mu.Lock()
	if len(p.free[k]) < poolPerKey {
		p.free[k] = append(p.free[k], w)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	w.Close()
}

// closeAll empties the pool, closing every idle world (test teardown).
func (p *worldPool) closeAll() {
	p.mu.Lock()
	all := p.free
	p.free = map[poolKey][]*mpi.World{}
	p.mu.Unlock()
	for _, ws := range all {
		for _, w := range ws {
			w.Close()
		}
	}
}

// stats returns how many worlds were constructed and how many gets were
// served by reuse.
func (p *worldPool) stats() (created, reused int64) {
	return p.created.Load(), p.reused.Load()
}
