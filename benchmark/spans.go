package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Spans of one workload operation (one run, one
// suite pass, one request) share Run; Parent is the ID of the span that
// caused this one, or -1.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Run      int     `json:"run"`
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// recorder keeps the spans of a traced pass in memory until the
// benchmark ends. A nil *recorder is the tracing-off state: every
// method is a no-op, so call sites are the same in both passes.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

// begin opens a span and returns its ID (-1 when tracing is off).
func (r *recorder) begin(name string, parent, run int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Workload: r.workload, Name: name, Start: now, End: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent, run int, fn func()) {
	id := r.begin(name, parent, run)
	fn()
	r.end(id)
}

// child records an already-measured interval of length d under parent,
// starting where the parent's previous imported child ended — the way
// exec.Tracer's per-rank phase totals (durations, not intervals) become
// children of the run span.
func (r *recorder) child(name string, parent, run int, offset, d time.Duration) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent].Start + offset.Seconds()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Workload: r.workload, Name: name, Start: start, End: start + d.Seconds()})
	return id
}

// selfTimes returns, for every run, each span name's summed self time:
// a span's duration minus the part its children cover.
func (r *recorder) selfTimes() map[int]map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]map[string]float64{}
	for _, s := range r.spans {
		if out[s.Run] == nil {
			out[s.Run] = map[string]float64{}
		}
		out[s.Run][s.Name] += s.End - s.Start - covered[s.ID]
	}
	return out
}

// medianSelf returns the median over runs of name's self time, counting
// only runs in which the span occurs, and that number of runs.
func medianSelf(self map[int]map[string]float64, name string) (float64, int) {
	var xs []float64
	for _, byName := range self {
		if v, ok := byName[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs), len(xs)
}

// spanFile is what -spans writes.
type spanFile struct {
	Host  hostInfo `json:"host"`
	Spans []span   `json:"spans"`
}

func writeSpans(path string, host hostInfo, r *recorder) error {
	data, err := json.Marshal(spanFile{Host: host, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
