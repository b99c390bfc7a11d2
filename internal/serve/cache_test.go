package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testKey builds a distinct key without going through the parser.
func testKey(i int) string { return fmt.Sprintf("spec-%d", i) }

// artFor is a stub compile whose Artifact names the key it was built for.
func artFor(key string) func() (*Artifact, error) {
	return func() (*Artifact, error) { return &Artifact{Source: key}, nil }
}

// TestCacheSingleFlight is the satellite contract: 64 goroutines racing
// on one uncached key run the compile function exactly once, and every
// caller gets the same Artifact pointer.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(8)
	var compiles atomic.Int64
	key := testKey(1)

	const goroutines = 64
	var start, done sync.WaitGroup
	start.Add(1)
	arts := make([]*Artifact, goroutines)
	for i := 0; i < goroutines; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			art, _, err := c.Get(key, func() (*Artifact, error) {
				compiles.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return &Artifact{Source: key}, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			arts[i] = art
		}(i)
	}
	start.Done()
	done.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("compiled %d times, want exactly 1", n)
	}
	for i, a := range arts {
		if a != arts[0] {
			t.Fatalf("goroutine %d got a different Artifact pointer", i)
		}
	}
	if hits, misses, _ := c.Stats(); misses != 1 || hits != goroutines-1 {
		t.Fatalf("cache counted %d misses and %d hits, want 1 and %d", misses, hits, goroutines-1)
	}
}

// TestCacheHitAfterMiss checks the basic hit path and the hit/miss
// accounting.
func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(8)
	key := testKey(1)
	compile := artFor(key)

	a1, hit, err := c.Get(key, compile)
	if err != nil || hit {
		t.Fatalf("first Get: hit=%v err=%v, want miss", hit, err)
	}
	a2, hit, err := c.Get(key, compile)
	if err != nil || !hit {
		t.Fatalf("second Get: hit=%v err=%v, want hit", hit, err)
	}
	if a1 != a2 {
		t.Fatal("hit returned a different Artifact pointer")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestCacheEvictsLRU checks that eviction follows true recency order over
// the whole cache: of keys that used to hash to different shards, the one
// touched longest ago is the one recompiled.
func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(3)
	get := func(i int) bool {
		t.Helper()
		art, hit, err := c.Get(testKey(i), artFor(testKey(i)))
		if err != nil || art.Source != testKey(i) {
			t.Fatalf("Get(%d): art=%+v err=%v", i, art, err)
		}
		return hit
	}
	for i := 1; i <= 3; i++ {
		if get(i) {
			t.Fatalf("key %d should miss cold", i)
		}
	}
	if !get(1) { // recency is now 1, 3, 2
		t.Fatal("key 1 should be cached")
	}
	if get(4) { // evicts 2, the least recently used
		t.Fatal("key 4 should miss")
	}
	if !get(1) || !get(3) || !get(4) {
		t.Fatal("keys 1, 3 and 4 should have survived key 2's eviction")
	}
	if get(2) { // recency was 4, 3, 1: evicts 1
		t.Fatal("key 2 should have been evicted")
	}
	if !get(3) || !get(4) || get(1) {
		t.Fatal("re-inserting key 2 should have evicted key 1 and nothing else")
	}
	if _, _, evictions := c.Stats(); evictions != 3 || c.Len() != 3 {
		t.Fatalf("evictions = %d, Len = %d, want 3 and 3", evictions, c.Len())
	}
}

// TestCacheErrorNotCached checks that a failed compile is retried: the
// error is delivered to every waiter of that flight, but the next
// request compiles again.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(8)
	key := testKey(1)
	boom := errors.New("boom")
	var calls atomic.Int64

	_, _, err := c.Get(key, func() (*Artifact, error) { calls.Add(1); return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	art, hit, err := c.Get(key, func() (*Artifact, error) { calls.Add(1); return &Artifact{Source: key}, nil })
	if err != nil || hit || art == nil {
		t.Fatalf("retry: art=%v hit=%v err=%v, want fresh compile", art, hit, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compile ran %d times, want 2", calls.Load())
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheCompilePanicUnblocksWaiters checks the panic path: waiters
// must get an error, not a hang, and the key must stay compilable.
func TestCacheCompilePanicUnblocksWaiters(t *testing.T) {
	c := NewCache(8)
	key := testKey(1)

	release := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		// The waiter joins the in-flight panic below.
		<-release
		_, _, err := c.Get(key, func() (*Artifact, error) {
			t.Error("waiter should have joined the in-flight compile")
			return nil, nil
		})
		waiterErr <- err
	}()

	func() {
		defer func() { recover() }()
		c.Get(key, func() (*Artifact, error) {
			close(release)
			time.Sleep(10 * time.Millisecond) // let the waiter join
			panic("compile exploded")
		})
	}()

	select {
	case err := <-waiterErr:
		if err == nil {
			t.Fatal("waiter got nil error after compile panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after compile panic")
	}
	// The key is retryable.
	if _, _, err := c.Get(key, artFor(key)); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

// TestCacheHammer churns a tiny cache from many goroutines with a keyset
// much larger than capacity — the race detector's playground for the
// lock, the LRU links and the single-flight publish.
func TestCacheHammer(t *testing.T) {
	c := NewCache(4)
	const (
		goroutines = 16
		iters      = 200
		keys       = 32
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := testKey((g*7 + i) % keys)
				art, _, err := c.Get(k, artFor(k))
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if art.Source != k {
					t.Errorf("got artifact for %q, want %q", art.Source, k)
					return
				}
				if n := c.Len(); n > 4 {
					t.Errorf("cache holds %d entries mid-churn, want <= 4", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 4 {
		t.Fatalf("cache holds %d entries, want <= 4", n)
	}
}

// TestCacheHitDoesNoWork pins the hit path of a request: a warm source
// reaches neither the compile function nor the parser inside it, and costs a
// map probe and a list splice — no allocation beyond artifact's closure.
func TestCacheHitDoesNoWork(t *testing.T) {
	s := New(Config{})
	src := heatSpec(12)
	if _, hit, err := s.artifact(src); err != nil || hit {
		t.Fatalf("cold request: hit=%v err=%v", hit, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, hit, err := s.artifact(src); err != nil || !hit {
			t.Fatalf("warm request: hit=%v err=%v", hit, err)
		}
	})
	if allocs > 1 {
		t.Errorf("a cache hit allocates %v times, want <= 1 (a parse alone is dozens)", allocs)
	}
	if hits, misses, _ := s.cache.Stats(); misses != 1 || hits != 101 {
		t.Errorf("%d compiles and %d hits over 102 requests, want 1 and 101", misses, hits)
	}
}

// TestCacheKeyIsSourceText documents the keying contract: the key is the
// source text, not what it parses to, so two sources that differ only in a
// comment are two entries with two compiles.
func TestCacheKeyIsSourceText(t *testing.T) {
	c := NewCache(8)
	plain := heatSpec(12)
	commented := "# same nest, same tiling\n" + plain
	a1, hit1, err1 := c.Get(plain, func() (*Artifact, error) { return compileSource(plain) })
	a2, hit2, err2 := c.Get(commented, func() (*Artifact, error) { return compileSource(commented) })
	if err1 != nil || err2 != nil {
		t.Fatalf("compile: %v / %v", err1, err2)
	}
	if hit1 || hit2 || a1 == a2 || c.Len() != 2 {
		t.Fatalf("hit=%v/%v same=%v Len=%d, want two misses, two artifacts, two entries", hit1, hit2, a1 == a2, c.Len())
	}
	if a1.Report() != a2.Report() {
		t.Fatal("the comment changed the compiled analysis")
	}
}

// TestFailedCompileDoesNotEvict is the evict-on-success contract through
// the server: a stream of bad specs — failing in the parser or, having
// parsed, in tiling.Analyze — leaves every cached artifact in place.
func TestFailedCompileDoesNotEvict(t *testing.T) {
	const capacity = 4
	s, ts, client := newTestServer(t, Config{CacheCapacity: capacity})
	analyze := func(src string) (int, analyzeResponse) {
		t.Helper()
		resp, body := postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, analyzeResponse{}
		}
		return resp.StatusCode, decode[analyzeResponse](t, body)
	}
	good := make([]string, capacity)
	for i := range good {
		good[i] = heatSpec(12 + 4*i)
		if st, r := analyze(good[i]); st != http.StatusOK || r.CacheHit {
			t.Fatalf("good spec %d: status %d hit %v, want a fresh 200", i, st, r.CacheHit)
		}
	}
	for i := 0; i < 200; i++ {
		// Unbalanced bracket: fails in frontend.Parse.
		if st, _ := analyze(fmt.Sprintf("let N = %d\nfor i = 1 .. N\nA[i = 1\n", i+1)); st != http.StatusBadRequest {
			t.Fatalf("parse-failing spec %d: status %d, want 400", i, st)
		}
		// Parses, but H = [[1/3, 1/5], [0, 1/4]] has a non-integral P = H⁻¹:
		// fails in tiling.Analyze.
		bad := fmt.Sprintf("let M = 6\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\nA[t,i] = A[t-1,i] + A[t,i-1]\ntile 1/3 1/5 / 0 1/4\n", i+8)
		if st, _ := analyze(bad); st != http.StatusBadRequest {
			t.Fatalf("analyze-failing spec %d: status %d, want 400", i, st)
		}
	}
	for i, src := range good {
		if st, r := analyze(src); st != http.StatusOK || !r.CacheHit {
			t.Errorf("good spec %d after the bad stream: status %d hit %v, want a cached 200", i, st, r.CacheHit)
		}
	}
	if n := s.cache.Len(); n != capacity {
		t.Errorf("cache holds %d entries, want %d", n, capacity)
	}
	if _, misses, evictions := s.cache.Stats(); evictions != 0 || misses != capacity+400 {
		t.Errorf("misses = %d, evictions = %d, want %d and 0", misses, evictions, capacity+400)
	}
}
