package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"p2/internal/load"
	"p2/internal/serve"
)

// cmdLoadtest drives a seeded synthetic workload (internal/load) against
// the planning service and reports throughput, tail latency and
// per-class counts. With no -url it boots an in-process serve.Server on
// an httptest listener, so the whole stack runs in one process; -warm
// warm-starts that server's strategy cache from the paper-suite catalog
// first, and -compare-warm runs the same stream against a cold and a
// warm server and reports both. The run fails (exit 1) on any
// unexpected error or — when cross-checking — any mismatch between
// client-observed counts and the daemon's /statz deltas.
func cmdLoadtest(fs *flag.FlagSet) body {
	url := fs.String("url", "", "base URL of a running daemon (empty = boot an in-process server)")
	mode := fs.String("mode", "closed", `drive mode: "closed" (N clients, think-time 0) or "open" (fixed arrival rate)`)
	clients := fs.Int("clients", 8, "closed-loop concurrent clients")
	rps := fs.Float64("rps", 50, "open-loop target arrival rate (requests per second)")
	requests := fs.Int("requests", 200, "total requests in the generated stream")
	seed := fs.Int64("seed", 1, "workload PRNG seed; same seed ⇒ byte-identical request stream")
	hotFrac := fs.Float64("hot-frac", 0.5, "fraction of requests drawn from the hot set (sets the cache-hit ratio)")
	timeoutFrac := fs.Float64("timeout-frac", 0.05, "fraction of requests carrying a 1ms deadline (anytime/partial path)")
	malformedFrac := fs.Float64("malformed-frac", 0.05, "fraction of deliberately malformed bodies (400 path)")
	warm := fs.Bool("warm", false, "warm-start the in-process server's strategy cache from the paper-suite catalog")
	compareWarm := fs.Bool("compare-warm", false, "run the same stream against a cold and a warm in-process server, report both")
	window := fs.Int("window", 50, "first-window size for the cold-vs-warm p99 comparison")
	crossCheck := fs.Bool("crosscheck", true, "audit client-observed counts against /statz deltas (disable if the target serves other traffic)")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON instead of a summary")
	maxInFlight := fs.Int("max-inflight", 0, "in-process server: concurrent /plan computations before shedding (0 = 2×GOMAXPROCS)")
	cacheSize := fs.Int("cache-size", 0, "in-process server: strategy-cache capacity (0 = 256, negative disables)")
	return func(e *env) error {
		if *url != "" && (*warm || *compareWarm) {
			return fmt.Errorf("loadtest: -warm and -compare-warm boot an in-process server and cannot be combined with -url")
		}

		m, err := load.ParseMode(*mode)
		if err != nil {
			return err
		}
		stream, err := load.Generate(load.WorkloadConfig{
			Seed:          *seed,
			HotFrac:       *hotFrac,
			TimeoutFrac:   *timeoutFrac,
			MalformedFrac: *malformedFrac,
		}, *requests)
		if err != nil {
			return err
		}
		opts := load.Options{Mode: m, Clients: *clients, RPS: *rps, Window: *window, CrossCheck: *crossCheck}
		cfg := serve.Config{MaxInFlight: *maxInFlight, CacheSize: *cacheSize}
		client := load.NewClient(*clients)

		runInProcess := func(warmStart bool) (*load.Report, error) {
			var warmSet []serve.PlanRequest
			if warmStart {
				warmSet = load.Catalog()
			}
			baseURL, warmed, shutdown, err := load.InProcess(cfg, warmSet)
			if err != nil {
				return nil, err
			}
			defer shutdown()
			if warmStart {
				fmt.Fprintf(e.errOut, "warmed %d catalog entries\n", warmed)
			}
			return load.Run(client, baseURL, stream, opts)
		}

		reports := map[string]*load.Report{}
		switch {
		case *url != "":
			rep, err := load.Run(client, *url, stream, opts)
			if err != nil {
				return err
			}
			reports["remote"] = rep
		case *compareWarm:
			cold, err := runInProcess(false)
			if err != nil {
				return err
			}
			warmRep, err := runInProcess(true)
			if err != nil {
				return err
			}
			reports["cold"] = cold
			reports["warm"] = warmRep
		default:
			rep, err := runInProcess(*warm)
			if err != nil {
				return err
			}
			if *warm {
				reports["warm"] = rep
			} else {
				reports["cold"] = rep
			}
		}
		for _, rep := range reports {
			rep.Seed = *seed
		}

		if *jsonOut {
			enc := json.NewEncoder(e.out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(reports); err != nil {
				return err
			}
		} else {
			for _, name := range []string{"remote", "cold", "warm"} {
				rep, ok := reports[name]
				if !ok {
					continue
				}
				printReport(e.out, name, rep)
			}
			if cold, warm := reports["cold"], reports["warm"]; cold != nil && warm != nil {
				fmt.Fprintf(e.out, "warm-start: first-window p99 %.1fms cold vs %.1fms warm\n",
					cold.FirstWindow.P99, warm.FirstWindow.P99)
			}
		}

		for name, rep := range reports {
			if rep.Failed() {
				return fmt.Errorf("loadtest: %s run failed: %d unexpected errors, %d cross-check failures",
					name, rep.Counts.Errors, len(rep.CrossCheck))
			}
		}
		return nil
	}
}

// printReport writes the human-readable summary of one run.
func printReport(out io.Writer, name string, r *load.Report) {
	fmt.Fprintf(out, "%s (%s loop, seed %d): %d requests in %.2fs, %.1f req/s\n",
		name, r.Mode, r.Seed, r.Requests, r.DurationSec, r.Throughput)
	fmt.Fprintf(out, "  latency ms: p50 %.1f  p95 %.1f  p99 %.1f  p99.9 %.1f (first %d: p99 %.1f)\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.P999, r.Window, r.FirstWindow.P99)
	c := r.Counts
	fmt.Fprintf(out, "  counts: %d complete, %d cache hits, %d partials, %d shed, %d deadline-expired, %d malformed, %d errors\n",
		c.Complete, c.CacheHits, c.Partials, c.Shed, c.DeadlineExpired+c.CoalesceExpired, c.Malformed, c.Errors)
	fmt.Fprintf(out, "  statz delta: %d requests, %d hits, %d misses, %d coalesced, %d shed, %d partials; first hot cached: %v\n",
		r.Statz.Requests, r.Statz.CacheHits, r.Statz.CacheMisses, r.Statz.Coalesced, r.Statz.Shed, r.Statz.Partials, r.FirstHotCached)
	if r.CrossChecked {
		if len(r.CrossCheck) == 0 {
			fmt.Fprintln(out, "  crosscheck: client counts and /statz deltas agree")
		} else {
			for _, f := range r.CrossCheck {
				fmt.Fprintf(out, "  crosscheck FAIL: %s\n", f)
			}
		}
	}
	for _, s := range r.ErrorSamples {
		fmt.Fprintf(out, "  error: %s\n", s)
	}
}
