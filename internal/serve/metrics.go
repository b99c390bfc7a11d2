package serve

import (
	"sync/atomic"
	"time"
)

// endpointStats is one endpoint's live counters.
type endpointStats struct {
	requests  atomic.Int64
	errors    atomic.Int64
	rejected  atomic.Int64 // admission / budget / drain rejections
	latencyNs atomic.Int64
	maxNs     atomic.Int64
}

// observe records one finished request.
func (e *endpointStats) observe(d time.Duration, status int) {
	e.requests.Add(1)
	ns := d.Nanoseconds()
	e.latencyNs.Add(ns)
	for {
		cur := e.maxNs.Load()
		if ns <= cur || e.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	switch {
	case status == 429 || status == 413 || status == 503:
		e.rejected.Add(1)
	case status >= 400:
		e.errors.Add(1)
	}
}

// EndpointMetrics is one endpoint's snapshot in the /metrics document.
type EndpointMetrics struct {
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Rejected     int64   `json:"rejected"`
	AvgLatencyMS float64 `json:"avg_latency_ms"`
	MaxLatencyMS float64 `json:"max_latency_ms"`
}

// CacheMetrics is the plan cache's snapshot.
type CacheMetrics struct {
	Entries   int     `json:"entries"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	Compiles  int64   `json:"compiles"`
	Evictions int64   `json:"evictions"`
}

// RunMetrics is the admission controller's snapshot.
type RunMetrics struct {
	InFlight       int   `json:"in_flight"`
	Queued         int64 `json:"queued"`
	Completed      int64 `json:"completed"`
	QueueRejected  int64 `json:"queue_rejected"`
	BudgetRejected int64 `json:"budget_rejected"`
}

// WorldMetrics is always zero: every run executes on a fresh world.
//
// Deprecated: the service keeps no world pool.
type WorldMetrics struct {
	Created int64 `json:"created"`
	Reused  int64 `json:"reused"`
}

// MetricsSnapshot is the GET /metrics document.
type MetricsSnapshot struct {
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
	Cache     CacheMetrics               `json:"cache"`
	Runs      RunMetrics                 `json:"runs"`
	// Worlds is always zero.
	//
	// Deprecated: the service keeps no world pool.
	Worlds WorldMetrics `json:"worlds"`
}

// snapshot assembles the full metrics document.
func (s *Server) snapshot() MetricsSnapshot {
	eps := map[string]EndpointMetrics{}
	for name, st := range s.eps {
		m := EndpointMetrics{
			Requests: st.requests.Load(),
			Errors:   st.errors.Load(),
			Rejected: st.rejected.Load(),
		}
		if m.Requests > 0 {
			m.AvgLatencyMS = float64(st.latencyNs.Load()) / float64(m.Requests) / 1e6
		}
		m.MaxLatencyMS = float64(st.maxNs.Load()) / 1e6
		eps[name] = m
	}
	hits, misses, evictions := s.cache.Stats()
	cm := CacheMetrics{
		Entries: s.cache.Len(), Hits: hits, Misses: misses,
		Compiles:  misses, // every miss runs exactly one compile
		Evictions: evictions,
	}
	if n := hits + misses; n > 0 {
		cm.HitRate = float64(hits) / float64(n)
	}
	return MetricsSnapshot{
		Endpoints: eps,
		Cache:     cm,
		Runs: RunMetrics{
			InFlight:       s.adm.inFlight(),
			Queued:         s.adm.queued.Load(),
			Completed:      s.runsDone.Load(),
			QueueRejected:  s.adm.rejected.Load(),
			BudgetRejected: s.budgetRejected.Load(),
		},
	}
}
