package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"p2/internal/load"
	"p2/internal/serve"
)

// cmdServe runs the planning daemon (internal/serve): an HTTP/JSON
// front end over the engine with per-request deadlines, anytime
// rankings, panic isolation, a single-flight strategy cache, load
// shedding and graceful drain. SIGTERM or interrupt starts the drain;
// the command exits 0 once in-flight requests have finished (or the
// -drain bound expired).
func cmdServe(fs *flag.FlagSet) body {
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one, printed on startup)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent /plan computations before requests are shed with 429 (0 = 2×GOMAXPROCS)")
	cacheSize := fs.Int("cache-size", 0, "complete /plan responses cached across requests, evicted FIFO (0 = 256, negative disables)")
	memoCap := fs.Int("memo-cap", 0, "synthesis-memo entries the shared planner keeps across requests (0 = 4096, negative = unbounded)")
	requestTimeout := fs.Duration("request-timeout", 0, "default planning deadline per request when the request body has no timeout_ms (0 = none)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown bound: how long in-flight requests may finish after SIGTERM/interrupt")
	warm := fs.Bool("warm", false, "plan the paper-suite catalog into the strategy cache before accepting traffic")
	return func(e *env) error {
		if *requestTimeout < 0 || *drain < 0 {
			return fmt.Errorf("-request-timeout and -drain must not be negative (got %v, %v)", *requestTimeout, *drain)
		}
		ctx, stop := signal.NotifyContext(e.ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		s := serve.NewServer(serve.Config{
			MaxInFlight:    *maxInFlight,
			CacheSize:      *cacheSize,
			MemoCap:        *memoCap,
			DefaultTimeout: *requestTimeout,
			DrainTimeout:   *drain,
		})
		if *warm {
			warmed, err := s.Warm(ctx, load.Catalog())
			if err != nil {
				return err
			}
			fmt.Fprintf(e.out, "warmed %d catalog entries\n", warmed)
		}
		return s.ListenAndServe(ctx, *addr, e.out)
	}
}
