// Command tileserved serves the tiling pipeline over HTTP: POST a
// loop-nest spec, get back the tiling analysis, the static certificate,
// the generated C+MPI program, or an executed run with its result
// digest. Compiled plans are shared across requests through a
// single-flight LRU; execution is admission-controlled.
//
//	tileserved -addr :8421 &
//	curl -s localhost:8421/v1/analyze -d '{"source":"let M = 6\nlet N = 12\nfor t = 1 .. M\nfor i = 1 .. N\nA[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + 3\ntile 1/3 0 / 0 1/4\n"}'
//	curl -s localhost:8421/metrics
//
// Endpoints: POST /v1/analyze /v1/certify /v1/codegen /v1/run;
// GET /metrics /healthz. SIGINT/SIGTERM drains: in-flight runs finish,
// new runs get 503, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tilespace/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8421", "listen address")
		cache      = flag.Int("cache", 256, "compiled-plan cache capacity in entries (at least 1)")
		inflight   = flag.Int("inflight", 4, "maximum concurrently executing runs")
		queue      = flag.Int("queue", 16, "maximum runs queued for a slot before 429")
		maxranks   = flag.Int("maxranks", 64, "per-request rank budget; larger distributions get 413")
		watchdog   = flag.Duration("watchdog", 30*time.Second, "per-run deadlock watchdog")
		retryafter = flag.Duration("retryafter", time.Second, "Retry-After hint on 429 responses")
		drainwait  = flag.Duration("drainwait", 30*time.Second, "how long shutdown waits for in-flight runs")
	)
	flag.Parse()
	positive := map[string]bool{"cache": *cache > 0, "inflight": *inflight > 0, "queue": *queue > 0,
		"maxranks": *maxranks > 0, "watchdog": *watchdog > 0, "retryafter": *retryafter > 0}
	flag.VisitAll(func(f *flag.Flag) {
		if ok, bound := positive[f.Name]; bound && !ok {
			fmt.Fprintf(os.Stderr, "tileserved: -%s %v: must be positive\n", f.Name, f.Value)
			flag.Usage()
			os.Exit(2)
		}
	})

	srv := serve.New(serve.Config{
		CacheCapacity: *cache,
		MaxInFlight:   *inflight,
		MaxQueue:      *queue,
		MaxRanks:      *maxranks,
		Watchdog:      *watchdog,
		RetryAfter:    *retryafter,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "tileserved: listening on %s (cache %d, inflight %d, queue %d, maxranks %d)\n",
		*addr, *cache, *inflight, *queue, *maxranks)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "tileserved: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "tileserved: %v, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainwait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "tileserved: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "tileserved: shutdown: %v\n", err)
		os.Exit(1)
	}
}
