package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tilespace/internal/compile"
	"tilespace/internal/exec"
)

// heatSpec is the battery's workhorse: a 2D skewed heat recurrence whose
// distribution needs a handful of ranks. Varying n yields distinct cache
// keys with identical structure.
func heatSpec(n int) string {
	return fmt.Sprintf(`
let M = 6
let N = %d
for t = 1 .. M
for i = 1 .. N
A[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + 3
tile 1/3 0 / 0 1/4
`, n)
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %q: %v", data, err)
	}
	return v
}

// newTestServer wires a Server into httptest with keep-alives off so
// goroutine-leak checks see a quiet baseline after Close.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	client := ts.Client()
	client.Transport.(*http.Transport).DisableKeepAlives = true
	t.Cleanup(ts.Close)
	return s, ts, client
}

// leakCheck polls until the goroutine count returns to the pre-test
// level — no rank, watchdog or handler goroutine may survive.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("leaked goroutines (%d -> %d):\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func TestAnalyzeEndpoint(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{})

	resp, body := postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: heatSpec(12)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	a := decode[analyzeResponse](t, body)
	if a.Procs <= 0 || a.Tiles <= 0 || a.Points != 6*12 || a.CacheHit {
		t.Fatalf("analyze = %+v, want positive geometry, 72 points, cold", a)
	}
	if !strings.Contains(a.Report, "tile") {
		t.Fatalf("report looks empty: %q", a.Report)
	}

	resp, body = postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: heatSpec(12)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if a2 := decode[analyzeResponse](t, body); !a2.CacheHit {
		t.Fatal("second analyze of the same spec should be a cache hit")
	}
}

func TestCertifyEndpoint(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{})

	resp, body := postJSON(t, client, ts.URL+"/v1/certify", specRequest{Source: heatSpec(12)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	c := decode[certifyResponse](t, body)
	if c.Points != 6*12 || c.Messages <= 0 || c.Checks <= 0 {
		t.Fatalf("certify = %+v, want a populated proof", c)
	}
}

// TestVerifiedRunsCertifyOnce: "verify": true gates a run on the cached
// artifact's one certificate — the proof /v1/certify serves — instead of
// re-proving the program inside every admitted run slot.
func TestVerifiedRunsCertifyOnce(t *testing.T) {
	leakCheck(t)
	s, ts, client := newTestServer(t, Config{})

	src := heatSpec(12)
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src, Verify: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verified run %d: %d %s", i, resp.StatusCode, body)
		}
		if hit := decode[runResponse](t, body).CacheHit; hit != (i == 1) {
			t.Fatalf("verified run %d: cache_hit = %v", i, hit)
		}
	}
	art, hit, err := s.artifact(src)
	if err != nil || !hit {
		t.Fatalf("artifact after two runs: hit=%v err=%v", hit, err)
	}
	// The artifact makes the proof once by construction; what is pinned here
	// is that the runs went through it: its lazy certificate slot is filled.
	if !certified(art) {
		t.Fatal("verified runs did not populate the artifact's certificate — they certified privately")
	}
}

func TestCodegenEndpoint(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{})

	resp, body := postJSON(t, client, ts.URL+"/v1/codegen", specRequest{Source: heatSpec(12)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	c := decode[codegenResponse](t, body)
	if !strings.Contains(c.Code, "MPI_Init") {
		t.Fatalf("generated code lacks MPI scaffolding:\n%.300s", c.Code)
	}
}

func TestBadSpecRejected(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{})

	for name, src := range map[string]string{
		"parse error": "for i = ..",
		"no tiling":   "for i = 1 .. 4\nA[i] = A[i-1] + 1",
	} {
		resp, body := postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: src})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
	// Unknown fields are rejected too — schema typos fail loud, and so does
	// a field the schema no longer has.
	for name, c := range map[string]struct {
		path string
		body map[string]any
	}{
		"unknown field":                  {"/v1/analyze", map[string]any{"sauce": "x"}},
		"removed field workers":          {"/v1/run", map[string]any{"source": heatSpec(12), "workers": 2}},
		"removed field schedule":         {"/v1/run", map[string]any{"source": heatSpec(12), "schedule": "static"}},
		"removed field faults":           {"/v1/run", map[string]any{"source": heatSpec(12), "faults": map[string]any{"seed": 1}}},
		"removed field checkpoint_every": {"/v1/run", map[string]any{"source": heatSpec(12), "checkpoint_every": 1}},
		"removed field stream":           {"/v1/run", map[string]any{"source": heatSpec(12), "stream": true}},
		"removed field transport":        {"/v1/run", map[string]any{"source": heatSpec(12), "transport": "tcp"}},
	} {
		resp, body := postJSON(t, client, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
	// A body is exactly one JSON object: anything after it is refused, not
	// ignored, on every endpoint.
	spec, err := json.Marshal(specRequest{Source: heatSpec(12)})
	if err != nil {
		t.Fatal(err)
	}
	for name, trailer := range map[string]string{
		"trailing bytes":  "xyz",
		"a second object": ` {"source":"junk"}`,
	} {
		for _, path := range []string{"/v1/analyze", "/v1/certify", "/v1/codegen", "/v1/run"} {
			resp, body := postRaw(t, client, ts.URL+path, string(spec)+trailer)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trailing data") {
				t.Errorf("%s %s: status %d (%s), want 400 for trailing data", name, path, resp.StatusCode, body)
			}
		}
	}
}

// TestOversizedBodyRejected: a body over MaxSourceBytes is a 413, which
// /metrics counts as a rejection, not a malformed request.
func TestOversizedBodyRejected(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{MaxSourceBytes: 256})
	spec, err := json.Marshal(specRequest{Source: strings.Repeat(" ", 1024) + heatSpec(12)})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postRaw(t, client, ts.URL+"/v1/analyze", string(spec))
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "larger than 256 bytes") {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, body)
	}
}

func postRaw(t *testing.T, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestOverflowingSpecRejected: a spec whose sizes leave int64 in the
// compiler's exact arithmetic — a huge bound, a tile edge finer than
// 1/MaxInt64 can invert — is a 400 naming the overflow on every endpoint,
// and the server keeps serving after it.
func TestOverflowingSpecRejected(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{})
	spec := func(m, tile string) string {
		return "let M = " + m + "\nfor i = 1 .. M\nfor j = 1 .. 4\nA[i,j] = A[i-1,j] + A[i,j-1]\ntile " + tile
	}
	specs := map[string]string{
		"bound 2^62":      spec("4611686018427387904", "1/2 0 / 0 1/2"),
		"bound MaxInt64":  spec("9223372036854775807", "1/2 0 / 0 1/2"),
		"tile 1/MaxInt64": spec("4", "1/9223372036854775807 0 / 0 1/2"),
	}
	for name, src := range specs {
		for _, path := range []string{"/v1/analyze", "/v1/certify", "/v1/codegen", "/v1/run"} {
			resp, body := postJSON(t, client, ts.URL+path, specRequest{Source: src})
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "overflow") {
				t.Errorf("%s %s: status %d (%s), want 400 naming the overflow", name, path, resp.StatusCode, body)
			}
		}
	}
	if resp, body := postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: heatSpec(12)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the overflowing specs: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// compileSource compiles src as the service does.
func compileSource(src string) (*Artifact, error) {
	return compile.Compile(compile.Spec{Source: src, Name: "tileserved"})
}

// certified reports whether art's lazy certificate has been made, without
// making it.
func certified(art *Artifact) bool {
	c := reflect.ValueOf(art).Elem().FieldByName("cert")
	return !c.FieldByName("v").IsNil() || !c.FieldByName("err").IsNil()
}

// TestRunBitIdenticalToInProcess is the service's ground truth: the
// checksum served over HTTP equals the checksum of a direct in-process
// run of the same spec, for both send modes, and repeat requests (warm
// cache) never change it.
func TestRunBitIdenticalToInProcess(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{})
	src := heatSpec(12)

	art, err := compileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := art.Prog.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := art.Checksum(g)

	for _, overlap := range []bool{false, true} {
		for round := 0; round < 3; round++ {
			resp, body := postJSON(t, client, ts.URL+"/v1/run",
				runRequest{Source: src, Overlap: overlap})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("overlap=%v round %d: status %d: %s", overlap, round, resp.StatusCode, body)
			}
			r := decode[runResponse](t, body)
			if r.Checksum != want {
				t.Fatalf("overlap=%v round %d: checksum %s, want %s", overlap, round, r.Checksum, want)
			}
			if r.Messages <= 0 || r.Procs != art.Procs {
				t.Fatalf("run = %+v, want real traffic on %d procs", r, art.Procs)
			}
		}
	}
}

func TestRunRankBudget(t *testing.T) {
	leakCheck(t)
	s, ts, client := newTestServer(t, Config{MaxRanks: 1})

	resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: heatSpec(12)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, body)
	}
	if s.budgetRejected.Load() != 1 {
		t.Fatalf("budgetRejected = %d, want 1", s.budgetRejected.Load())
	}

	// A verified over-budget run is refused before it certifies: the
	// service must not prove a program it will not run.
	src := heatSpec(16)
	resp, body = postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src, Verify: true})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("verified run: status %d (%s), want 413", resp.StatusCode, body)
	}
	art, hit, err := s.artifact(src)
	if err != nil || !hit {
		t.Fatalf("artifact after the refused run: hit=%v err=%v", hit, err)
	}
	if certified(art) {
		t.Fatal("an over-budget verified run certified the artifact")
	}
}

// TestRunQueueBackpressure fills the only run slot and the only queue
// seat, then checks the next request bounces with 429 + Retry-After
// instead of waiting.
func TestRunQueueBackpressure(t *testing.T) {
	leakCheck(t)
	s, ts, client := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})
	src := heatSpec(12)

	// Warm the cache so the queued request below blocks in acquire, not
	// in compile.
	if resp, body := postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: src}); resp.StatusCode != 200 {
		t.Fatalf("warm: %d %s", resp.StatusCode, body)
	}

	// Occupy the single slot directly.
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One request queues...
	queuedDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src})
		queuedDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// ...and the next bounces.
	resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	if s.adm.rejected.Load() != 1 {
		t.Fatalf("rejected = %d, want 1", s.adm.rejected.Load())
	}

	// Releasing the slot lets the queued run finish normally.
	release()
	select {
	case st := <-queuedDone:
		if st != http.StatusOK {
			t.Fatalf("queued run finished with %d, want 200", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued run never finished")
	}
}

// TestDrain checks graceful shutdown: draining rejects new runs with
// 503, waits for in-flight runs, and leaves compile endpoints up.
func TestDrain(t *testing.T) {
	leakCheck(t)
	s, ts, client := newTestServer(t, Config{})
	src := heatSpec(12)

	// One normal run first, so drain has completed work behind it.
	if resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src}); resp.StatusCode != 200 {
		t.Fatalf("pre-drain run: %d %s", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain run: %d (%s), want 503", resp.StatusCode, body)
	}
	if resp, _ := client.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: %d, want 503", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, body := postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: src}); resp.StatusCode != 200 {
		t.Fatalf("post-drain analyze: %d %s, want 200 (compile side stays up)", resp.StatusCode, body)
	}
}

// TestMetricsEndpoint drives a little traffic and checks the snapshot
// adds up.
func TestMetricsEndpoint(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{})
	src := heatSpec(12)

	postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: src})
	postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: src})
	postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src})

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Endpoints["analyze"].Requests != 2 {
		t.Fatalf("analyze requests = %d, want 2", m.Endpoints["analyze"].Requests)
	}
	if m.Endpoints["run"].Requests != 1 {
		t.Fatalf("run requests = %d, want 1", m.Endpoints["run"].Requests)
	}
	if m.Cache.Hits < 2 || m.Cache.Compiles != 1 {
		t.Fatalf("cache = %+v, want >=2 hits over exactly 1 compile", m.Cache)
	}
	if m.Runs.Completed != 1 || m.Runs.InFlight != 0 {
		t.Fatalf("runs = %+v, want 1 completed, 0 in flight", m.Runs)
	}
	if m.Endpoints["analyze"].AvgLatencyMS <= 0 {
		t.Fatalf("analyze avg latency %v, want > 0", m.Endpoints["analyze"].AvgLatencyMS)
	}
}

// TestConcurrentMixedLoad hammers every endpoint at once under -race:
// distinct specs churn the cache while runs contend for slots; every
// response must be 200, 429 or 503-free and every checksum per spec
// identical.
func TestConcurrentMixedLoad(t *testing.T) {
	leakCheck(t)
	_, ts, client := newTestServer(t, Config{CacheCapacity: 4, MaxInFlight: 2, MaxQueue: 64})

	specs := make([]string, 6)
	for i := range specs {
		specs[i] = heatSpec(8 + 4*i)
	}
	var mu sync.Mutex
	sums := map[string]string{}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				src := specs[(g+i)%len(specs)]
				switch i % 3 {
				case 0:
					resp, body := postJSON(t, client, ts.URL+"/v1/analyze", specRequest{Source: src})
					if resp.StatusCode != 200 {
						t.Errorf("analyze: %d %s", resp.StatusCode, body)
					}
				case 1:
					resp, body := postJSON(t, client, ts.URL+"/v1/certify", specRequest{Source: src})
					if resp.StatusCode != 200 {
						t.Errorf("certify: %d %s", resp.StatusCode, body)
					}
				case 2:
					resp, body := postJSON(t, client, ts.URL+"/v1/run", runRequest{Source: src})
					if resp.StatusCode != 200 {
						t.Errorf("run: %d %s", resp.StatusCode, body)
						continue
					}
					sum := decode[runResponse](t, body).Checksum
					mu.Lock()
					if prev, ok := sums[src]; ok && prev != sum {
						t.Errorf("spec checksum flapped: %s vs %s", prev, sum)
					}
					sums[src] = sum
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
}
