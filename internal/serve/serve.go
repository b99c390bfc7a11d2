// Package serve is the tiling-as-a-service layer: an HTTP facade over
// the whole pipeline — parse → analyze → distribute → certify →
// generate → execute — built for many concurrent clients sharing one
// process. Two mechanisms make that safe and fast:
//
//   - a single-flight LRU of immutable compiled Artifacts keyed by the
//     spec's source text (cache.go), so a hot spec compiles once and every
//     request after that reuses the same Program without parsing;
//   - admission control on the execution side (admission.go): bounded
//     in-flight runs, a bounded wait queue with fail-fast backpressure
//     (429 + Retry-After), and a per-request rank budget (413).
//
// A run takes a spec and returns its answer: POST /v1/run carries only
// the source, the send mode and whether to certify first, and each
// admitted run executes on a fresh in-process channel world.
//
// Everything is stdlib net/http; cmd/tileserved wraps it in a binary.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tilespace/internal/compile"
	"tilespace/internal/exec"
	"tilespace/internal/mpi"
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
	cfg   Config
	cache *Cache
	adm   *admission
	mux   *http.ServeMux
	eps   map[string]*endpointStats

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
		cfg:   cfg,
		cache: NewCache(cfg.CacheCapacity),
		adm:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.RetryAfter),
		mux:   http.NewServeMux(),
		eps:   map[string]*endpointStats{},
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

// decodeSpec decodes a request body that must be exactly one JSON object
// of dst's schema: unknown fields and trailing data are a 400, a body over
// MaxSourceBytes a 413.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request, dst any) (int, bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			err = nil
		} else if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON object")
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return writeError(w, http.StatusRequestEntityTooLarge, "request body larger than %d bytes", tooLarge.Limit), false
	case err != nil:
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err), false
	}
	return 0, true
}

// artifact resolves the request's spec through the cache, compiling at
// most once per source across all concurrent callers.
func (s *Server) artifact(source string) (*Artifact, bool, error) {
	return s.cache.Get(source, func() (*Artifact, error) {
		return compile.Compile(compile.Spec{Source: source, Name: "tileserved"})
	})
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
		Procs: art.Procs, Tiles: art.Tiles, Points: art.Points(),
		TileSize: art.TileSize, Width: art.Width, Report: art.Report(),
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
	code, err := art.C()
	if err != nil {
		return writeError(w, http.StatusUnprocessableEntity, "codegen failed: %v", err)
	}
	return writeJSON(w, http.StatusOK, codegenResponse{Code: code, CacheHit: hit})
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
}

// runResponse is the result of an execution.
type runResponse struct {
	Procs    int    `json:"procs"`
	Tiles    int64  `json:"tiles"`
	Points   int64  `json:"points"`
	Messages int64  `json:"messages"`
	Values   int64  `json:"values"`
	Checksum string `json:"checksum"`
	CacheHit bool   `json:"cache_hit"`
	Overlap  bool   `json:"overlap"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) int {
	var req runRequest
	if st, ok := s.decodeSpec(w, r, &req); !ok {
		return st
	}
	if s.draining.Load() {
		return writeError(w, http.StatusServiceUnavailable, "server is draining")
	}
	art, hit, err := s.artifact(req.Source)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	// The budget is checked before the certificate: a spec the service will
	// refuse to run must not cost it a certify first.
	if art.Procs > s.cfg.MaxRanks {
		s.budgetRejected.Add(1)
		return writeError(w, http.StatusRequestEntityTooLarge,
			"spec needs %d ranks, budget is %d", art.Procs, s.cfg.MaxRanks)
	}
	if req.Verify {
		if _, err := art.Certificate(); err != nil {
			return writeError(w, http.StatusUnprocessableEntity, "certification failed: %v", err)
		}
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

	// RunOptions.World is left nil: each run gets a fresh channel world.
	g, stats, err := art.Prog.RunParallelOpts(exec.RunOptions{
		Overlap: req.Overlap,
		Net:     mpi.Options{Watchdog: s.cfg.Watchdog},
	})
	if err != nil {
		return writeError(w, http.StatusInternalServerError, "run failed: %v", err)
	}
	return writeJSON(w, http.StatusOK, runResponse{
		Procs: art.Procs, Tiles: art.Tiles, Points: art.Points(),
		Messages: stats.Messages, Values: stats.Values,
		Checksum: art.Checksum(g), CacheHit: hit, Overlap: req.Overlap,
	})
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
