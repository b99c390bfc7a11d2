package serve

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"tilespace/internal/compile"
)

// Artifact is the compiled bundle one spec maps to (internal/compile),
// immutable and shared by every holder.
type Artifact = compile.Artifact

// This file is the shared plan cache: one mutex-guarded LRU of immutable
// Artifacts keyed by the spec's source text. The contract the concurrency
// battery enforces:
//
//   - A spec is its text: two sources that differ anywhere — a comment, a
//     blank — are two keys. A hit is a map probe and a list splice; the
//     parser runs only inside compile.
//   - Single-flight misses: N concurrent requests for one uncached source
//     run the compile function exactly once; the other N−1 block on the
//     entry's ready channel and share the one Artifact pointer.
//   - Evict on success: an in-flight entry is in the map (so requests join
//     it) but joins the recency list, and pushes the tail out, only once its
//     compile has succeeded. A failed or panicking compile is delivered to
//     its waiters and forgotten — it evicts nothing and the next request
//     retries.
//   - Safe eviction under load: eviction only unlinks the entry — holders
//     (including runs in flight on the evicted Program) keep their pointer
//     and the Artifact is immutable, so there is no use-after-evict; the next
//     request for the source recompiles.
//
// mu covers the map and the list and nothing else: never a compile, a wait
// on ready, or I/O.

// Cache is the single-flight LRU of compiled Artifacts.
type Cache struct {
	capacity int

	mu       sync.Mutex
	bySource map[string]*cacheEntry
	lru      list.List // of *cacheEntry: front is most recently used, back next to evict

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	source string
	elem   *list.Element // nil until the compile succeeds

	ready chan struct{} // closed once art/err are published
	art   *Artifact
	err   error
}

// NewCache returns a cache that holds at most capacity compiled entries;
// capacity must be at least 1.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		panic(fmt.Sprintf("serve: NewCache capacity %d, want at least 1", capacity))
	}
	return &Cache{capacity: capacity, bySource: map[string]*cacheEntry{}}
}

// Get returns the Artifact for source, compiling it with compile on a miss.
// hit reports whether the caller shared an already-present entry (either
// fully compiled or in flight — in both cases no compile ran for this
// caller).
func (c *Cache) Get(source string, compile func() (*Artifact, error)) (art *Artifact, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.bySource[source]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.ready
		return e.art, true, e.err
	}
	e := &cacheEntry{source: source, ready: make(chan struct{})}
	c.bySource[source] = e
	c.mu.Unlock()
	c.misses.Add(1)

	// Publish even if compile panics: waiters must never block on a ready
	// channel nobody will close.
	defer func() {
		if r := recover(); r != nil {
			c.publish(e, nil, fmt.Errorf("serve: compile panicked: %v", r))
			panic(r)
		}
	}()
	art, err = compile()
	c.publish(e, art, err)
	return art, false, err
}

// publish delivers a finished compile to the flight's waiters, then links
// the entry (evicting past capacity) on success or forgets it on failure.
func (c *Cache) publish(e *cacheEntry, art *Artifact, err error) {
	e.art, e.err = art, err
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		delete(c.bySource, e.source)
		return
	}
	e.elem = c.lru.PushFront(e)
	for c.lru.Len() > c.capacity {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.bySource, old.source)
		c.evictions.Add(1)
	}
}

// Len returns the number of compiled entries the cache holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns the cache's cumulative counters: hits, misses (= compile
// invocations: every miss runs exactly one) and evictions.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
