package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

// Satellite regression: a sub-second Retry-After hint must never render
// as "Retry-After: 0" — zero tells clients to retry immediately, which
// is the stampede the header exists to prevent.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Millisecond, 2},
		{2 * time.Second, 2},
		{2500 * time.Millisecond, 3},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// The 429 path must carry the clamped header even when the operator
// configures an aggressive sub-second backoff.
func TestRetryAfterHeaderNeverZero(t *testing.T) {
	leakCheck(t)
	s, ts, client := newTestServer(t, Config{
		MaxInFlight: 1, MaxQueue: 1, RetryAfter: 50 * time.Millisecond,
	})

	// Occupy the only slot and the only queue seat so the next run is
	// rejected with 429.
	s.adm.slots <- struct{}{}
	defer func() { <-s.adm.slots }()
	s.adm.queued.Add(1)
	defer s.adm.queued.Add(-1)

	resp, _ := postJSON(t, client, ts.URL+"/v1/run", map[string]any{"source": heatSpec(12)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (sub-second hint must clamp up, not truncate to 0)", got)
	}
}

// Satellite regression: run registration vs Drain. The old code checked
// the draining flag and then called runs.Add(1) with no ordering against
// Drain's runs.Wait() — a run admitted in that window raced the Wait
// (WaitGroup misuse) and could outlive the drain. Under -race this test
// pins the fix: a storm of runs across a mid-flight Drain must leave the
// admission semaphore and queue at exactly zero, and no run may start
// after Drain returns.
func TestDrainAdmissionAccounting(t *testing.T) {
	leakCheck(t)
	s, ts, client := newTestServer(t, Config{
		MaxInFlight: 2, MaxQueue: 8, Watchdog: 30 * time.Second,
	})

	const clients = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, _ := postJSON(t, client, ts.URL+"/v1/run", map[string]any{"source": heatSpec(12)})
			switch resp.StatusCode {
			case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	close(start)
	// Flip the drain mid-storm.
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain returned: every registered run has finished. The stragglers
	// still in flight as HTTP requests must resolve to 503s.
	wg.Wait()

	if n := s.adm.inFlight(); n != 0 {
		t.Errorf("admission semaphore holds %d slots after drain; leaked releases", n)
	}
	if q := s.adm.queued.Load(); q != 0 {
		t.Errorf("admission queue count %d after drain; accounting drifted", q)
	}
	resp, _ := postJSON(t, client, ts.URL+"/v1/run", map[string]any{"source": heatSpec(12)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run admitted after drain: status %d", resp.StatusCode)
	}
}
