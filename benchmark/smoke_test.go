package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the driver's view of the benchmark, ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json and the metric
// and workload lists in the code to the same names, units, directions,
// bounds and reasons, and the names and units to the driver's alphabets.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q: bad name, unit %q or direction %q", n, u, better)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end has %d metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the code %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		check(m.Name, m.Unit, m.Better)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the code %+v", i, j, m)
		}
		check(m.Name, m.Unit, m.Better)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json has %d, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		j := b.Workloads[i]
		if j.Name != w.name || j.Why != w.why {
			t.Errorf("workloads[%d]: BENCHMARK.json has %+v, the code %q: %q", i, j, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		check(w.name, "count", "lower")
	}
}

// TestSmoke runs every workload in both passes at a tiny scale and
// checks the result line the driver reads: correct, and exactly the
// metrics BENCHMARK.json promises, each with its unit.
func TestSmoke(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t)
	before := runtime.NumGoroutine()
	cfg := config{seed: 3, budget: 150 * time.Millisecond, setups: 1, small: true, golden: golden}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var rec *recorder
			want := map[string]string{}
			if traced {
				rec = newRecorder(w.name)
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, hung := runWorkload(w, cfg, rec)
			if hung {
				t.Fatalf("%s: watchdog fired: %v", w.name, res.failures)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.failed, res.attempted, res.failures)
			}
			data, err := encodeResult(res)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var line resultLine
			if err := json.Unmarshal(data, &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: result line %s", w.name, traced, data)
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s: emitted %v (%+v), want unit %q", w.name, traced, name, ok, got, unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, name, got.Value)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.name, traced, len(line.Metrics), len(want))
			}
			if traced && len(rec.spans) == 0 {
				t.Errorf("%s: traced pass recorded no spans", w.name)
			}
		}
	}
	// Every client, rank, server and mesh goroutine must have been joined.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestLayersAddUp checks the span accounting on a run workload: the
// critical rank's phases plus the unattributed remainder make up the
// traced run's wall time, from the emitted numbers alone.
func TestLayersAddUp(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("jacobi_coarse")
	rec := newRecorder(w.name)
	res, _ := runWorkload(w, config{seed: 1, budget: 150 * time.Millisecond, setups: 1, small: true, golden: golden}, rec)
	if !res.correct() {
		t.Fatal(res.failures)
	}
	for run, byName := range rec.selfTimes() {
		wall := 0.0
		for _, s := range rec.spans {
			if s.Run == run && s.Name == "exec.RunParallelOpts" {
				wall = s.End - s.Start
			}
		}
		if wall == 0 {
			continue
		}
		sum := 0.0
		for _, v := range byName {
			sum += v
		}
		if d := (sum - wall) / wall; d > 0.02 || d < -0.02 {
			t.Errorf("run %d: self times sum to %.6fs, the run span is %.6fs", run, sum, wall)
		}
	}
}

// TestGoldenGateTrips corrupts one committed expectation per workload
// kind and expects set-up to refuse it.
func TestGoldenGateTrips(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if golden == nil {
		t.Skipf("no committed expectations for %s", runtime.GOARCH)
	}
	for workloadName, key := range map[string]string{
		"sor_fine":      "small/sor_fine/checksum",
		"compile_suite": "small/compile_suite/adi_nr1",
		"serve_mix":     "small/serve_mix/spec05",
	} {
		if _, ok := golden[key]; !ok {
			t.Fatalf("no committed expectation %s", key)
		}
		bad := map[string]string{}
		for k, v := range golden {
			bad[k] = v
		}
		bad[key] = "0" + bad[key][1:]
		if bad[key] == golden[key] {
			bad[key] = "1" + bad[key][1:]
		}
		w, _ := findWorkload(workloadName)
		res, _ := runWorkload(w, config{seed: 3, budget: 50 * time.Millisecond, setups: 1, small: true, golden: bad}, nil)
		if res.correct() || len(res.failures) == 0 || !strings.Contains(res.failures[0], "golden") {
			t.Errorf("%s: corrupted %s passed the gate: %+v", workloadName, key, res.failures)
		}
	}
}
