// Package serve is the tiling-as-a-service layer: an HTTP facade over
// the whole pipeline — parse → analyze → distribute → certify →
// generate → execute — built for many concurrent clients sharing one
// process. Three mechanisms make that safe and fast:
//
//   - a single-flight LRU of immutable compiled Artifacts keyed by the
//     spec's source text (cache.go), so a hot spec compiles once and every
//     request after that reuses the same Program without parsing;
//   - admission control on the execution side (admission.go): bounded
//     in-flight runs, a bounded wait queue with fail-fast backpressure
//     (429 + Retry-After), and a per-request rank budget (413);
//   - a pool of reusable mpi Worlds (pool.go), Reset by the executor
//     under each run's options, so steady-state runs allocate no new
//     rank fabric.
//
// Everything is stdlib net/http; cmd/tileserved wraps it in a binary.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/simnet"
)

// Config sizes the service. The zero value is usable: withDefaults
// fills every field with a sensible bound.
type Config struct {
	// CacheCapacity bounds the compiled-plan cache (entries).
	CacheCapacity int
	// MaxInFlight bounds concurrently executing runs.
	MaxInFlight int
	// MaxQueue bounds runs waiting for a slot; beyond it requests are
	// rejected with 429 + Retry-After.
	MaxQueue int
	// MaxRanks is the per-request concurrency budget: a request costs its
	// distribution's rank count, and anything over budget is rejected with
	// 413 before it can monopolize the machine.
	MaxRanks int
	// RetryAfter is the hint returned with 429 responses.
	RetryAfter time.Duration
	// Watchdog is the per-run deadlock watchdog (see mpi.Options).
	Watchdog time.Duration
	// MaxSourceBytes bounds the request body.
	MaxSourceBytes int64
}

func (c Config) withDefaults() Config {
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.MaxRanks <= 0 {
		c.MaxRanks = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 30 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	return c
}

// Server is the HTTP service. Create with New; it implements
// http.Handler.
type Server struct {
	cfg    Config
	cache  *Cache
	adm    *admission
	worlds *worldPool
	mux    *http.ServeMux
	eps    map[string]*endpointStats

	// drainMu serializes run registration against Drain's flag flip:
	// checking draining and joining the runs WaitGroup must be atomic,
	// or a run admitted between Drain's Store and its Wait would race
	// the Wait (Add-after-Wait is a WaitGroup misuse) and outlive the
	// drain. beginRun/Drain are the only users.
	drainMu        sync.Mutex
	runs           sync.WaitGroup
	runsDone       atomic.Int64
	budgetRejected atomic.Int64
	draining       atomic.Bool
}

// New returns a ready Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  NewCache(cfg.CacheCapacity),
		adm:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.RetryAfter),
		worlds: newWorldPool(),
		mux:    http.NewServeMux(),
		eps:    map[string]*endpointStats{},
	}
	for _, ep := range []struct {
		name, pattern string
		h             func(http.ResponseWriter, *http.Request) int
	}{
		{"analyze", "POST /v1/analyze", s.handleAnalyze},
		{"certify", "POST /v1/certify", s.handleCertify},
		{"codegen", "POST /v1/codegen", s.handleCodegen},
		{"run", "POST /v1/run", s.handleRun},
	} {
		st := &endpointStats{}
		s.eps[ep.name] = st
		h := ep.h
		s.mux.HandleFunc(ep.pattern, func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			status := h(w, r)
			st.observe(time.Since(t0), status)
		})
	}
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.snapshot())
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// beginRun registers one run against the drain barrier. It returns
// false — and registers nothing — once Drain has flipped the flag, so
// no run can slip past a Wait already in progress.
func (s *Server) beginRun() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.runs.Add(1)
	return true
}

// Drain stops admitting new runs and waits (up to ctx) for in-flight
// runs to finish. Compile-only endpoints keep working; /healthz flips
// to 503 so load balancers rotate the instance out.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.runs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	return status
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) int {
	return writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// specRequest is the body shared by the compile-side endpoints.
type specRequest struct {
	// Source is the loop-nest spec in the tilec DSL: let-bindings, the
	// for-nest, the statement, and a `tile` directive.
	Source string `json:"source"`
}

func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request, dst any) (int, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err), false
	}
	return 0, true
}

// artifact resolves the request's spec through the cache, compiling at
// most once per source across all concurrent callers.
func (s *Server) artifact(source string) (*Artifact, bool, error) {
	return s.cache.Get(source, func() (*Artifact, error) { return compileSpec(source) })
}

// analyzeResponse is POST /v1/analyze's body: the compile-time facts
// about the spec, no execution.
type analyzeResponse struct {
	Procs    int    `json:"procs"`
	Tiles    int64  `json:"tiles"`
	Points   int64  `json:"points"`
	TileSize int64  `json:"tile_size"`
	Width    int    `json:"width"`
	Report   string `json:"report"`
	CacheHit bool   `json:"cache_hit"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) int {
	var req specRequest
	if st, ok := s.decodeSpec(w, r, &req); !ok {
		return st
	}
	art, hit, err := s.artifact(req.Source)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	return writeJSON(w, http.StatusOK, analyzeResponse{
		Procs: art.Procs, Tiles: art.Tiles, Points: art.Points,
		TileSize: art.TileSize, Width: art.Width, Report: art.Report,
		CacheHit: hit,
	})
}

// certifyResponse is POST /v1/certify's body: the static proof summary.
type certifyResponse struct {
	Procs    int    `json:"procs"`
	Tiles    int64  `json:"tiles"`
	Points   int64  `json:"points"`
	Messages int64  `json:"messages"`
	Values   int64  `json:"values"`
	Checks   int64  `json:"checks"`
	Shapes   int    `json:"shapes"`
	Summary  string `json:"summary"`
	CacheHit bool   `json:"cache_hit"`
}

func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) int {
	var req specRequest
	if st, ok := s.decodeSpec(w, r, &req); !ok {
		return st
	}
	art, hit, err := s.artifact(req.Source)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	rep, err := art.Certificate()
	if err != nil {
		// The program compiled but the proof failed — the spec is
		// well-formed yet not certifiable, which is the caller's problem,
		// not a malformed request.
		return writeError(w, http.StatusUnprocessableEntity, "certification failed: %v", err)
	}
	return writeJSON(w, http.StatusOK, certifyResponse{
		Procs: rep.Procs, Tiles: rep.Tiles, Points: rep.Points,
		Messages: rep.Messages, Values: rep.Values, Checks: rep.Checks,
		Shapes: rep.Shapes, Summary: rep.String(), CacheHit: hit,
	})
}

// codegenResponse is POST /v1/codegen's body: the emitted C+MPI source.
type codegenResponse struct {
	Code     string `json:"code"`
	CacheHit bool   `json:"cache_hit"`
}

func (s *Server) handleCodegen(w http.ResponseWriter, r *http.Request) int {
	var req specRequest
	if st, ok := s.decodeSpec(w, r, &req); !ok {
		return st
	}
	art, hit, err := s.artifact(req.Source)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	code, err := art.GeneratedC()
	if err != nil {
		return writeError(w, http.StatusUnprocessableEntity, "codegen failed: %v", err)
	}
	return writeJSON(w, http.StatusOK, codegenResponse{Code: code, CacheHit: hit})
}

// linkFaultReq is one link's injected perturbation in a run request —
// the wire form of mpi.Link → mpi.LinkFault (struct map keys don't
// survive JSON).
type linkFaultReq struct {
	Src      int   `json:"src"`
	Dst      int   `json:"dst"`
	DelayUS  int64 `json:"delay_us"`
	JitterUS int64 `json:"jitter_us"`
}

// faultReq is the wire form of mpi.FaultPlan.
type faultReq struct {
	Seed           int64            `json:"seed"`
	Slowdown       map[int]float64  `json:"slowdown,omitempty"`
	Links          []linkFaultReq   `json:"links,omitempty"`
	SendRate       float64          `json:"send_rate,omitempty"`
	SendMaxRetries int              `json:"send_max_retries,omitempty"`
	SendBackoffUS  int64            `json:"send_backoff_us,omitempty"`
	Crash          map[string]int64 `json:"crash,omitempty"`
	RestartDelayUS int64            `json:"restart_delay_us,omitempty"`
}

// Every injected sleep runs inside an admitted run slot, so the service
// bounds what one request may ask for (mpi.FaultPlan.Validate checks only
// sign and rate): each injected sleep — a restart outage, a link's delay or
// jitter, a message's total retry backoff — and the compute slowdown factor.
const (
	maxFaultSleepUS = 100_000 // 100 ms
	maxSlowdown     = 1000
)

// checkBounds rejects a plan whose sleeps could park a run slot. It works on
// the request's raw integers, before any of them is scaled to a Duration.
func (f *faultReq) checkBounds() error {
	if f.RestartDelayUS > maxFaultSleepUS {
		return fmt.Errorf("faults.restart_delay_us %d exceeds %d", f.RestartDelayUS, maxFaultSleepUS)
	}
	for _, l := range f.Links {
		if l.DelayUS > maxFaultSleepUS || l.JitterUS > maxFaultSleepUS {
			return fmt.Errorf("faults.links %d→%d: delay_us %d / jitter_us %d exceed %d", l.Src, l.Dst, l.DelayUS, l.JitterUS, maxFaultSleepUS)
		}
	}
	// The backoff doubles per retry (FaultPlan.SendBackoffs), so a message
	// can sleep backoff·(2^retries − 1) in all.
	if total := math.Ldexp(float64(f.SendBackoffUS), f.SendMaxRetries) - float64(f.SendBackoffUS); total > maxFaultSleepUS {
		return fmt.Errorf("faults: send_backoff_us doubling over send_max_retries sleeps up to %g us per message, limit %d", total, maxFaultSleepUS)
	}
	for rank, s := range f.Slowdown {
		if !(s <= maxSlowdown) { // NaN fails too
			return fmt.Errorf("faults.slowdown of rank %d is %g, limit %d", rank, s, maxSlowdown)
		}
	}
	return nil
}

func (f *faultReq) plan() (*mpi.FaultPlan, error) {
	if f == nil {
		return nil, nil
	}
	if err := f.checkBounds(); err != nil {
		return nil, err
	}
	fp := &mpi.FaultPlan{Seed: f.Seed, Slowdown: f.Slowdown,
		RestartDelay: time.Duration(f.RestartDelayUS) * time.Microsecond}
	if len(f.Links) > 0 {
		fp.Links = map[mpi.Link]mpi.LinkFault{}
		for _, l := range f.Links {
			fp.Links[mpi.Link{Src: l.Src, Dst: l.Dst}] = mpi.LinkFault{
				Delay:  time.Duration(l.DelayUS) * time.Microsecond,
				Jitter: time.Duration(l.JitterUS) * time.Microsecond,
			}
		}
	}
	if f.SendRate > 0 {
		fp.Sends = &mpi.SendFaults{
			Rate:       f.SendRate,
			MaxRetries: f.SendMaxRetries,
			Backoff:    time.Duration(f.SendBackoffUS) * time.Microsecond,
		}
	}
	if len(f.Crash) > 0 {
		fp.Crash = map[int]int64{}
		for rs, tile := range f.Crash {
			rank, err := strconv.Atoi(rs)
			if err != nil {
				return nil, fmt.Errorf("faults.crash: rank %q is not an integer", rs)
			}
			fp.Crash[rank] = tile
		}
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	return fp, nil
}

// runRequest is POST /v1/run's body.
type runRequest struct {
	Source string `json:"source"`
	// Overlap selects non-blocking Isends (computation–communication
	// overlap); results are bit-identical either way.
	Overlap bool `json:"overlap"`
	// Verify requires the artifact's certificate (the proof /v1/certify
	// returns, computed once per cached artifact) before any rank starts.
	Verify bool `json:"verify"`
	// Faults injects a deterministic fault schedule.
	Faults *faultReq `json:"faults,omitempty"`
	// CheckpointEvery enables tile-chain checkpointing with the given
	// snapshot period; required when Faults crashes a rank.
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// Stream switches the response to NDJSON: one line per completed
	// tile (the measured simnet.Event) as it happens, then one final
	// line carrying the runResponse.
	Stream bool `json:"stream,omitempty"`
	// Transport selects the wire family the run's ranks communicate
	// over: "channel" (default — the in-process fabric) or "tcp" (a
	// loopback TCP mesh; every message crosses a real socket with
	// framed, coalesced sends). Results and traffic stats are
	// bit-identical across transports; the knob exists for soak testing
	// the wire path and for measuring it.
	Transport string `json:"transport,omitempty"`
}

// runResponse is the final result of an execution.
type runResponse struct {
	Procs     int    `json:"procs"`
	Tiles     int64  `json:"tiles"`
	Points    int64  `json:"points"`
	Messages  int64  `json:"messages"`
	Values    int64  `json:"values"`
	Checksum  string `json:"checksum"`
	CacheHit  bool   `json:"cache_hit"`
	Overlap   bool   `json:"overlap"`
	Transport string `json:"transport"`
}

// streamLine is one NDJSON line of a streamed run: either a tile/fault
// event or the final result.
type streamLine struct {
	Event  *simnet.Event `json:"event,omitempty"`
	Result *runResponse  `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) int {
	var req runRequest
	if st, ok := s.decodeSpec(w, r, &req); !ok {
		return st
	}
	if s.draining.Load() {
		return writeError(w, http.StatusServiceUnavailable, "server is draining")
	}
	faults, err := req.Faults.plan()
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad fault plan: %v", err)
	}
	transport := req.Transport
	switch transport {
	case "":
		transport = "channel"
	case "channel", "tcp":
	default:
		return writeError(w, http.StatusBadRequest,
			"unknown transport %q (want \"channel\" or \"tcp\")", req.Transport)
	}
	art, hit, err := s.artifact(req.Source)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	if req.Verify {
		if _, err := art.Certificate(); err != nil {
			return writeError(w, http.StatusUnprocessableEntity, "certification failed: %v", err)
		}
	}
	if art.Procs > s.cfg.MaxRanks {
		s.budgetRejected.Add(1)
		return writeError(w, http.StatusRequestEntityTooLarge,
			"spec needs %d ranks, budget is %d", art.Procs, s.cfg.MaxRanks)
	}
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		if err == errBusy {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.adm.retryAfter)))
			return writeError(w, http.StatusTooManyRequests, "%v", err)
		}
		return writeError(w, http.StatusRequestTimeout, "canceled while queued: %v", err)
	}
	// Register against the drain barrier after the possibly long queue
	// wait; beginRun atomically re-checks the flag so queued work can't
	// be admitted behind a Drain already waiting.
	if !s.beginRun() {
		release()
		return writeError(w, http.StatusServiceUnavailable, "server is draining")
	}
	defer func() {
		release()
		s.runs.Done()
		s.runsDone.Add(1)
	}()

	opt := exec.RunOptions{
		Overlap: req.Overlap,
		Net:     mpi.Options{Watchdog: s.cfg.Watchdog, Faults: faults},
	}
	if req.CheckpointEvery > 0 {
		opt.Checkpoint = &exec.CheckpointOptions{Every: req.CheckpointEvery}
	}
	world, err := s.worlds.get(art.Procs, transport)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, "transport: %v", err)
	}
	opt.World = world
	run := func(opt exec.RunOptions) (*runResponse, error) {
		g, stats, err := art.Prog.RunParallelOpts(opt)
		// A failed run may leave the world aborted; Reset handles that on
		// reuse, so pool it regardless.
		s.worlds.put(world, transport)
		if err != nil {
			return nil, err
		}
		return &runResponse{
			Procs: art.Procs, Tiles: art.Tiles, Points: art.Points,
			Messages: stats.Messages, Values: stats.Values,
			Checksum: art.Checksum(g), CacheHit: hit, Overlap: opt.Overlap,
			Transport: transport,
		}, nil
	}
	if req.Stream {
		return streamRun(w, opt, run)
	}
	res, err := run(opt)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, "run failed: %v", err)
	}
	return writeJSON(w, http.StatusOK, res)
}

// retryAfterSeconds renders an admission backoff hint as a Retry-After
// value. The header speaks integer seconds, and zero means "retry
// immediately" to most clients — exactly the stampede the hint exists
// to prevent — so sub-second hints clamp up to 1, never truncate to 0.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// streamRun executes run with a live tracer and writes NDJSON progress:
// each measured tile event the moment its rank records it, then one
// final result line. The HTTP status is always 200 — errors after the
// first byte arrive as an error line.
func streamRun(w http.ResponseWriter, opt exec.RunOptions, run func(exec.RunOptions) (*runResponse, error)) int {
	live := make(chan simnet.Event, 1024)
	tr := exec.NewTracer()
	tr.Live = live
	opt.Trace = tr

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	done := make(chan streamLine, 1)
	go func() {
		res, err := run(opt)
		if err != nil {
			done <- streamLine{Error: err.Error()}
			return
		}
		done <- streamLine{Result: res}
	}()

	writeLine := func(line streamLine) {
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		select {
		case ev := <-live:
			writeLine(streamLine{Event: &ev})
		case last := <-done:
			// Drain whatever the ranks published before finishing.
			for {
				select {
				case ev := <-live:
					writeLine(streamLine{Event: &ev})
					continue
				default:
				}
				break
			}
			writeLine(last)
			return http.StatusOK
		}
	}
}
