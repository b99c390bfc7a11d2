package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"tilespace/internal/serve"
)

const (
	serveSpecs    = 24 // working set, 1.5× the plan cache
	serveCapacity = 16
	serveDeck     = 2000 // requests in one pass of the deck
)

// Endpoint mix of the request stream, in per cent.
var serveMix = []struct {
	path  string
	share int
}{{"/v1/analyze", 40}, {"/v1/certify", 30}, {"/v1/codegen", 10}, {"/v1/run", 20}}

// serveShares is serveMix as the weights of the typical latency.
func serveShares() []float64 {
	w := make([]float64, len(serveMix))
	for i, m := range serveMix {
		w[i] = float64(m.share) / 100
	}
	return w
}

// serveSource is spec i of the working set: a small 2-D nest whose size,
// tile shape and constant vary with i, so the cache keys are distinct.
// The set is the same on every seed — the seed draws the request stream,
// not the specs — because the cache's shard of a spec depends on its
// text, and a different collision pattern per seed would be a different
// workload per seed.
func serveSource(i int, small bool) string {
	tiles := []string{"1/3 0 / 0 1/4", "1/3 0 / 0 1/6", "1/2 0 / 0 1/4"}
	n := 24 + 8*(i%3)
	if small {
		n = 12 + 4*(i%3)
	}
	return fmt.Sprintf("let M = 8\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\nA[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + %d\ntile %s\n",
		n, 1+i, tiles[i%len(tiles)])
}

// deck is one pass of the request stream: serveDeck (spec,
// endpoint) pairs that hold every spec in exactly its Zipf(1.1) share and
// every endpoint in exactly its share of the mix. The seed decides the
// order and the pairing. Drawing every request independently would let
// the shares wander from seed to seed, and with them the hit ratio and the
// share of slow endpoints, which is a different workload per seed.
type deck struct{ spec, path []int }

func newDeck() deck {
	var d deck
	weights := make([]float64, serveSpecs)
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(1+i), -1.1)
		total += weights[i]
	}
	// Largest-remainder rounding of the Zipf shares to serveDeck cards.
	counts, rest := make([]int, serveSpecs), make([]float64, serveSpecs)
	left := serveDeck
	for i, w := range weights {
		exact := w / total * serveDeck
		counts[i] = int(exact)
		rest[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		most := 0
		for i := range rest {
			if rest[i] > rest[most] {
				most = i
			}
		}
		counts[most]++
		rest[most] = -1
	}
	for i, n := range counts {
		for ; n > 0; n-- {
			d.spec = append(d.spec, i)
		}
	}
	for p, m := range serveMix {
		for n := serveDeck * m.share / 100; n > 0; n-- {
			d.path = append(d.path, p)
		}
	}
	return d
}

func (d deck) shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.spec), func(i, j int) { d.spec[i], d.spec[j] = d.spec[j], d.spec[i] })
	rng.Shuffle(len(d.path), func(i, j int) { d.path[i], d.path[j] = d.path[j], d.path[i] })
}

// server is the serve_mix workload after set-up.
//
// There is one closed-loop client. With two on this host's two cores, a
// neighbour that took one core for a second doubled the tail and cost a
// fifth of the rate (clients and service then queue for the core left);
// with one, the same interference moves no median by more than a few per
// cent, because the core left is enough. A /v1/run still fans out over
// its ranks' goroutines.
//
// The client calls the service's http.Handler directly, in its own
// goroutine, and does not go through a socket: on this shared host the
// cost of a loopback round trip and of the goroutine wake-ups behind it
// moves by 2–3× between quiet and busy minutes of the neighbours, and
// at ~0.05 ms it was most of a cache hit's latency — the benchmark was
// reading the host's scheduler, not the service. What is timed is
// everything the repository's code does for a request: routing, decoding
// the body, cache and single-flight, compile, proof, emission, admission,
// the pooled world and the run, encoding the reply.
type server struct {
	seed int64
	h    *serve.Server
	// bodies[path][spec] is the request's JSON body, built once.
	bodies [][][]byte
	sums   []string       // reference /v1/run checksum per spec
	codes  map[int]string // first generated-C hash seen per spec
}

func setupServe(cfg config, rec *recorder) (instance, error) {
	s := &server{
		seed: cfg.seed, bodies: make([][][]byte, len(serveMix)), codes: map[int]string{},
	}
	root := rec.begin("setup", -1, 0)
	defer rec.end(root)

	// References first, from outside the service: the checksum /v1/run
	// must answer is that of the plain sequential interpreter.
	for i := 0; i < serveSpecs; i++ {
		src := serveSource(i, cfg.small)
		c, err := compileUnit(unit{name: fmt.Sprintf("serve spec %d", i), source: src}, rec, root, 0, false, false)
		if err != nil {
			return nil, err
		}
		ref, err := c.prog.RunSequential()
		if err != nil {
			return nil, fmt.Errorf("serve spec %d: sequential reference: %w", i, err)
		}
		sum := checksum(c.prog, ref)
		if err := cfg.checkGolden(fmt.Sprintf("serve_mix/spec%02d", i), sum); err != nil {
			return nil, err
		}
		s.sums = append(s.sums, sum)
		for p, m := range serveMix {
			fields := map[string]any{"source": src}
			if m.path == "/v1/run" {
				fields["overlap"] = true
			}
			body, err := json.Marshal(fields)
			if err != nil {
				return nil, err
			}
			s.bodies[p] = append(s.bodies[p], body)
		}
	}

	s.h = serve.New(serve.Config{CacheCapacity: serveCapacity})

	// Prime: every spec through every endpoint once, coldest first, so
	// the cache holds the popular specs and each proof and emission has
	// happened once where its artifact is resident. This is also the
	// untimed warm-up.
	for i := serveSpecs - 1; i >= 0; i-- {
		for p := range serveMix {
			if _, err := s.request(i, p); err != nil {
				return nil, fmt.Errorf("prime: %w", err)
			}
		}
	}
	return s, nil
}

// The service keeps no goroutine between requests (its pooled worlds are
// channel worlds), so there is nothing to stop.
func (s *server) close() {}

// request sends one request for spec i to endpoint serveMix[p] and
// checks the answer. The latency is the handler's, call to return, with
// the whole reply written.
func (s *server) request(i, p int) (time.Duration, error) {
	path := serveMix[p].path
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(s.bodies[p][i]))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	t0 := time.Now()
	s.h.ServeHTTP(w, req)
	d := time.Since(t0)
	data := w.Body.Bytes()
	if w.Code/100 != 2 {
		return d, fmt.Errorf("%s spec %d: status %d: %.120s", path, i, w.Code, data)
	}
	var out struct {
		Checksum string `json:"checksum"`
		Code     string `json:"code"`
		Checks   int64  `json:"checks"`
		Tiles    int64  `json:"tiles"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return d, fmt.Errorf("%s spec %d: %w", path, i, err)
	}
	switch path {
	case "/v1/run":
		if out.Checksum != s.sums[i] {
			return d, fmt.Errorf("/v1/run spec %d: checksum %s, sequential reference %s", i, out.Checksum, s.sums[i])
		}
	case "/v1/codegen":
		h := codeHash(out.Code)
		first, seen := s.codes[i]
		if !seen {
			s.codes[i] = h
		}
		if out.Code == "" || (seen && first != h) {
			return d, fmt.Errorf("/v1/codegen spec %d: generated C changed (%s, first %s)", i, h, first)
		}
	case "/v1/certify":
		if out.Checks == 0 {
			return d, fmt.Errorf("/v1/certify spec %d: certificate proves nothing", i)
		}
	default:
		if out.Tiles == 0 {
			return d, fmt.Errorf("/v1/analyze spec %d: no tiles", i)
		}
	}
	return d, nil
}

// load runs the closed-loop client for budget: it waits for its reply
// before taking its next request from the deck, which it reshuffles from
// the seeded stream before every pass. An operation's class is its
// endpoint.
func (s *server) load(budget time.Duration, rec *recorder) timed {
	rng := rand.New(rand.NewSource(s.seed))
	d := newDeck()
	var t timed
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < budget; k++ {
		if k%serveDeck == 0 {
			d.shuffle(rng)
		}
		spec, path := d.spec[k%serveDeck], d.path[k%serveDeck]
		id := rec.begin(serveMix[path].path, -1, k+1)
		lat, err := s.request(spec, path)
		rec.end(id)
		t.add(lat, time.Since(start), path, err, budget)
	}
	return t
}

func (s *server) measure(budget time.Duration) timed { return s.load(budget, nil) }

func (s *server) metrics() (serve.MetricsSnapshot, error) {
	var m serve.MetricsSnapshot
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", w.Code)
	}
	return m, json.Unmarshal(w.Body.Bytes(), &m)
}

func (s *server) layers(budget time.Duration, rec *recorder) (samples, timed) {
	before, err := s.metrics()
	t := s.load(budget, rec)
	after, err2 := s.metrics()
	if err != nil || err2 != nil {
		t.fail(fmt.Errorf("GET /metrics: %v %v", err, err2))
		return samples{}, t
	}
	n := len(t.ops)
	out := samples{}
	compileLayers(out, rec.selfTimes()) // set-up's front half over the 24 specs: the miss path's compile
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	if hits+misses > 0 {
		out.set("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	out.set("serve.compiles", float64(after.Cache.Compiles-before.Cache.Compiles), n)
	out.set("serve.evictions", float64(after.Cache.Evictions-before.Cache.Evictions), n)
	rejected := after.Runs.QueueRejected + after.Runs.BudgetRejected - before.Runs.QueueRejected - before.Runs.BudgetRejected
	out.set("serve.rejected", float64(rejected), n)
	created, reused := after.Worlds.Created-before.Worlds.Created, after.Worlds.Reused-before.Worlds.Reused
	if created+reused > 0 {
		out.set("serve.worlds_reused_ratio", float64(reused)/float64(created+reused), int(created+reused))
	}
	byPath := make([][]float64, len(serveMix))
	for _, o := range t.ops {
		if !o.failed {
			byPath[o.class] = append(byPath[o.class], o.lat*1e3)
		}
	}
	for i, name := range []string{"serve.analyze_p50_ms", "serve.certify_p50_ms", "serve.codegen_p50_ms", "serve.run_p50_ms"} {
		out.set(name, median(byPath[i]), len(byPath[i]))
	}
	return out, t
}
