package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2/internal/serve"
)

// Mode selects how the runner offers load.
type Mode int

const (
	// ClosedLoop runs Clients concurrent clients with zero think time:
	// each sends its next request the moment the previous response
	// lands, so offered load adapts to service rate and concurrency is
	// bounded by construction.
	ClosedLoop Mode = iota
	// OpenLoop fires requests at a fixed arrival rate (RPS) regardless
	// of outstanding responses — the "millions of independent users"
	// shape, where a slow server accumulates concurrency and must shed.
	OpenLoop
)

// String names the mode as ParseMode accepts it.
func (m Mode) String() string {
	if m == OpenLoop {
		return "open"
	}
	return "closed"
}

// ParseMode parses a -mode flag value ("closed" or "open").
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "closed":
		return ClosedLoop, nil
	case "open":
		return OpenLoop, nil
	default:
		return 0, fmt.Errorf(`load: unknown mode %q (want "closed" or "open")`, s)
	}
}

// Options tunes a Run.
type Options struct {
	Mode Mode
	// Clients is the closed-loop concurrency (default 8).
	Clients int
	// RPS is the open-loop target arrival rate (default 50).
	RPS float64
	// Window is the first-window size for warm-vs-cold comparison: the
	// FirstWindow percentiles cover the 200-responses among the first
	// Window stream entries (default 50, capped at the stream length).
	Window int
	// CrossCheck verifies the client-side counts against /statz deltas
	// (see Report.CrossCheck). Enable it only when the target serves no
	// other traffic during the run — deltas must belong to this harness.
	CrossCheck bool
}

// Percentiles are nearest-rank latency percentiles in milliseconds
// (serve.Percentile — the same formula /statz uses, so client- and
// server-side numbers are comparable).
type Percentiles struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// Counts are the per-class response counts of a run. The 200 classes
// are disjoint: a response counts as a cache hit, else a partial, else
// complete.
type Counts struct {
	Sent            int64 `json:"sent"`
	Complete        int64 `json:"complete"`
	CacheHits       int64 `json:"cache_hits"`
	Partials        int64 `json:"partials"`
	Malformed       int64 `json:"malformed_400"`
	Shed            int64 `json:"shed_429"`
	DeadlineExpired int64 `json:"deadline_504"`
	CoalesceExpired int64 `json:"coalesce_wait_503"`
	// Errors counts everything outside the sender's Kind contract:
	// transport failures, 500s, a 400 on a well-formed request, a shed
	// on a deadline-free closed-loop request — anything the workload did
	// not entitle the server to answer with.
	Errors int64 `json:"unexpected_errors"`
}

// StatzDelta is the change in the daemon's own counters across the run.
type StatzDelta struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Coalesced   int64 `json:"coalesced"`
	Shed        int64 `json:"shed"`
	Partials    int64 `json:"partials"`
	Panics      int64 `json:"panics"`
	// Outcomes are the per-outcome request counts (serve.Statz.Outcomes).
	Outcomes map[string]int64 `json:"outcomes"`
}

// Report is the outcome of one Run.
type Report struct {
	Mode      string  `json:"mode"`
	Seed      int64   `json:"seed"`
	Clients   int     `json:"clients,omitempty"`
	TargetRPS float64 `json:"target_rps,omitempty"`
	Requests  int     `json:"requests"`
	// DurationSec is the wall-clock span from first send to last
	// response; Throughput is responses (all classes) per second over it.
	DurationSec float64 `json:"duration_s"`
	Throughput  float64 `json:"throughput_rps"`
	Counts      Counts  `json:"counts"`
	// Latency covers every 200 response of the run; FirstWindow only the
	// 200s among the first Window stream entries — the cold-start
	// signal warm-starting is supposed to remove.
	Latency     Percentiles `json:"latency_ms"`
	FirstWindow Percentiles `json:"first_window_latency_ms"`
	Window      int         `json:"window"`
	// FirstHotCached reports whether the response to the stream's first
	// hot-set request was served from the strategy cache — true on a
	// warm-started server and false on a cold one (Run sends that request
	// alone, before any other), the loadsmoke assertion.
	FirstHotCached bool       `json:"first_hot_cached"`
	Statz          StatzDelta `json:"statz_delta"`
	// CrossCheck lists client-vs-/statz accounting inconsistencies
	// (empty and CrossChecked=true means the daemon's own counters
	// survived the audit; see crossCheck for the invariants).
	CrossChecked bool     `json:"crosschecked"`
	CrossCheck   []string `json:"crosscheck_failures,omitempty"`
	// ErrorSamples carries up to five unexpected-error descriptions for
	// diagnosis.
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// Failed reports whether the run violated its contract: any unexpected
// error, or (when cross-checking) any accounting inconsistency.
func (r *Report) Failed() bool {
	return r.Counts.Errors > 0 || len(r.CrossCheck) > 0
}

// result is one response as the sender observed it; results land by
// stream index.
type result struct {
	status    int
	cached    bool
	partial   bool
	latencyMs float64
	err       error
}

// Run drives one generated stream against a /plan endpoint and reports.
// The stream (not the timing) is deterministic; see the package comment.
func Run(client *http.Client, baseURL string, stream []Request, opts Options) (*Report, error) {
	if len(stream) == 0 {
		return nil, fmt.Errorf("load: empty request stream")
	}
	if opts.Clients <= 0 {
		opts.Clients = 8
	}
	if opts.RPS <= 0 {
		opts.RPS = 50
	}
	if opts.Window <= 0 {
		opts.Window = 50
	}
	if opts.Window > len(stream) {
		opts.Window = len(stream)
	}
	interval := float64(time.Second) / opts.RPS // ns: NaN, +Inf and rates above 1e9/s give no positive Duration
	if opts.Mode == OpenLoop && !(interval >= 1 && interval < 1<<63) {
		return nil, fmt.Errorf("load: open-loop rate %g req/s has no positive arrival interval", opts.RPS)
	}

	before, err := FetchStatz(client, baseURL)
	if err != nil {
		if opts.CrossCheck {
			return nil, fmt.Errorf("load: /statz before run: %w", err)
		}
		before = &serve.Statz{}
	}

	results := make([]result, len(stream))
	// The stream's first hot request goes out alone, before any other, so
	// that on a cold server it misses by construction: FirstHotCached then
	// reports the server's warm state, not which client won a race.
	order := make([]int, 0, len(stream))
	first := slices.IndexFunc(stream, func(r Request) bool { return r.Kind == KindHot })
	for i := range stream {
		if i != first {
			order = append(order, i)
		}
	}
	start := time.Now()
	if first >= 0 {
		results[first] = send(client, baseURL, stream[first].Body)
	}
	switch opts.Mode {
	case OpenLoop:
		runOpen(client, baseURL, stream, order, results, time.Duration(interval))
	default:
		runClosed(client, baseURL, stream, order, results, opts.Clients)
	}
	duration := time.Since(start)

	after, err := FetchStatz(client, baseURL)
	if err != nil {
		if opts.CrossCheck {
			return nil, fmt.Errorf("load: /statz after run: %w", err)
		}
		after = before
	}

	return buildReport(stream, results, duration, opts, before, after), nil
}

// runClosed is the closed-loop driver: Clients workers pull the next
// stream index of order from a shared counter, think time zero. Results
// land by index, so the report is independent of completion interleaving.
func runClosed(client *http.Client, baseURL string, stream []Request, order []int, results []result, clients int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				results[i] = send(client, baseURL, stream[i].Body)
			}
		}()
	}
	wg.Wait()
}

// runOpen is the open-loop driver: the stream indices of order depart on
// a fixed-interval ticker regardless of outstanding responses, one
// goroutine each.
func runOpen(client *http.Client, baseURL string, stream []Request, order []int, results []result, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	for k, i := range order {
		if k > 0 {
			<-ticker.C
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = send(client, baseURL, stream[i].Body)
		}(i)
	}
	wg.Wait()
}

// send posts one body and observes status, response flags and latency.
func send(client *http.Client, baseURL, body string) result {
	start := time.Now()
	resp, err := client.Post(baseURL+"/plan", "application/json", strings.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	defer resp.Body.Close()
	var flags struct {
		Partial bool `json:"partial"`
		Cached  bool `json:"cached"`
	}
	if resp.StatusCode == http.StatusOK {
		if derr := json.NewDecoder(resp.Body).Decode(&flags); derr != nil {
			return result{err: fmt.Errorf("decoding 200 body: %w", derr)}
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return result{
		status:    resp.StatusCode,
		cached:    flags.Cached,
		partial:   flags.Partial,
		latencyMs: float64(time.Since(start)) / float64(time.Millisecond),
	}
}

// buildReport classifies results against their kinds, computes
// percentiles and audits the /statz deltas.
func buildReport(stream []Request, results []result, duration time.Duration, opts Options, before, after *serve.Statz) *Report {
	r := &Report{
		Mode:        opts.Mode.String(),
		Requests:    len(stream),
		Window:      opts.Window,
		DurationSec: duration.Seconds(),
		Statz: StatzDelta{
			Requests:    after.Requests - before.Requests,
			CacheHits:   after.CacheHits - before.CacheHits,
			CacheMisses: after.CacheMisses - before.CacheMisses,
			Coalesced:   after.Coalesced - before.Coalesced,
			Shed:        after.Shed - before.Shed,
			Partials:    after.Partials - before.Partials,
			Panics:      after.Panics - before.Panics,
			Outcomes:    map[string]int64{},
		},
	}
	for name, o := range after.Outcomes {
		r.Statz.Outcomes[name] = o.Requests - before.Outcomes[name].Requests
	}
	if opts.Mode == OpenLoop {
		r.TargetRPS = opts.RPS
	} else {
		r.Clients = opts.Clients
	}

	var all, window []float64
	firstHotSeen := false
	for i, res := range results {
		req := stream[i]
		r.Counts.Sent++
		if req.Kind == KindHot && !firstHotSeen {
			firstHotSeen = true
			r.FirstHotCached = res.cached
		}
		if res.status == http.StatusOK {
			all = append(all, res.latencyMs)
			if i < opts.Window {
				window = append(window, res.latencyMs)
			}
		}
		if msg := classify(req.Kind, res, &r.Counts); msg != "" {
			r.Counts.Errors++
			if len(r.ErrorSamples) < 5 {
				r.ErrorSamples = append(r.ErrorSamples, fmt.Sprintf("request %d (%s): %s", i, req.Kind, msg))
			}
		}
	}
	if r.DurationSec > 0 {
		r.Throughput = float64(len(results)) / r.DurationSec
	}
	r.Latency = percentiles(all)
	r.FirstWindow = percentiles(window)
	if opts.CrossCheck {
		r.CrossChecked = true
		r.CrossCheck = crossCheck(&r.Counts, &r.Statz)
	}
	return r
}

// classify folds one result into the counts; a non-empty return is the
// contract violation it represents.
func classify(kind Kind, res result, c *Counts) string {
	if res.err != nil {
		return res.err.Error()
	}
	switch res.status {
	case http.StatusOK:
		switch {
		case res.cached:
			c.CacheHits++
		case res.partial:
			c.Partials++
			if kind != KindDeadlined {
				return "partial result on a deadline-free request"
			}
		default:
			c.Complete++
		}
		if kind == KindMalformed {
			return "200 on a malformed body"
		}
		return ""
	case http.StatusBadRequest:
		if kind != KindMalformed {
			return "400 on a well-formed request"
		}
		c.Malformed++
		return ""
	case http.StatusTooManyRequests:
		c.Shed++
		if kind == KindMalformed {
			return "429 on a malformed body (shed before decode?)"
		}
		return ""
	case http.StatusGatewayTimeout:
		c.DeadlineExpired++
		if kind != KindDeadlined {
			return "504 on a deadline-free request"
		}
		return ""
	case http.StatusServiceUnavailable:
		c.CoalesceExpired++
		if kind != KindDeadlined {
			return "503 on a deadline-free request"
		}
		return ""
	default:
		return fmt.Sprintf("unexpected status %d", res.status)
	}
}

// crossCheck audits the daemon's /statz accounting against what the
// clients observed. Exact where the protocol is 1:1 (every cache-hit
// response increments hits exactly once), bounded where coalescing
// legitimately decouples computations from responses (one partial
// computation can answer 1+followers partial responses).
func crossCheck(c *Counts, d *StatzDelta) []string {
	var bad []string
	checkf := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	checkf(d.Requests == c.Sent,
		"statz requests delta %d != %d requests sent", d.Requests, c.Sent)
	checkf(d.CacheHits == c.CacheHits,
		"statz cache_hits delta %d != %d cached responses observed", d.CacheHits, c.CacheHits)
	checkf(d.Shed == c.Shed,
		"statz shed delta %d != %d 429s observed", d.Shed, c.Shed)
	// Every well-formed request is exactly one hit or one miss; 400s are
	// neither. This catches a resolve-vs-counter drift on either side.
	checkf(d.CacheHits+d.CacheMisses == c.Sent-c.Malformed,
		"statz hits+misses delta %d != %d well-formed requests", d.CacheHits+d.CacheMisses, c.Sent-c.Malformed)
	// The server counts partial computations; clients count partial
	// responses. Followers coalesced onto a partial flight see
	// partial=true without a second counter increment, so responses may
	// exceed computations by at most the coalesced count.
	checkf(d.Partials <= c.Partials,
		"statz partials delta %d > %d partial responses observed", d.Partials, c.Partials)
	checkf(c.Partials-d.Partials <= d.Coalesced,
		"%d partial responses vs %d partial computations: excess exceeds %d coalesced",
		c.Partials, d.Partials, d.Coalesced)
	// A follower is by definition also a miss.
	checkf(d.Coalesced <= d.CacheMisses,
		"statz coalesced delta %d > misses delta %d", d.Coalesced, d.CacheMisses)
	checkf(d.Panics == 0, "statz panics delta %d != 0", d.Panics)
	// Each request has one outcome, and the client's class of its
	// response names it: a hit, a 200 the daemon planned or coalesced,
	// or any other status.
	o, uncached := d.Outcomes, c.Complete+c.Partials
	checkf(o["hit"] == c.CacheHits,
		"statz hit outcomes delta %d != %d cached responses observed", o["hit"], c.CacheHits)
	checkf(o["full"]+o["partial"]+o["coalesced"] == uncached,
		"statz full+partial+coalesced outcomes delta %d != %d uncached 200s observed", o["full"]+o["partial"]+o["coalesced"], uncached)
	checkf(o["error"] == c.Sent-c.CacheHits-uncached,
		"statz error outcomes delta %d != %d non-200s observed", o["error"], c.Sent-c.CacheHits-uncached)
	return bad
}

// percentiles sorts a latency sample and extracts the report's
// nearest-rank percentiles; an empty sample reports zeros.
func percentiles(ms []float64) Percentiles {
	if len(ms) == 0 {
		return Percentiles{}
	}
	sorted := make([]float64, len(ms))
	copy(sorted, ms)
	sort.Float64s(sorted)
	return Percentiles{
		P50:  serve.Percentile(sorted, 50),
		P95:  serve.Percentile(sorted, 95),
		P99:  serve.Percentile(sorted, 99),
		P999: serve.Percentile(sorted, 99.9),
	}
}

// FetchStatz snapshots the daemon's /statz counters.
func FetchStatz(client *http.Client, baseURL string) (*serve.Statz, error) {
	resp, err := client.Get(baseURL + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /statz: status %d", resp.StatusCode)
	}
	var st serve.Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /statz: %w", err)
	}
	return &st, nil
}

// InProcess boots a serve.Server on an httptest listener — the CI shape:
// the whole stack (daemon included) runs inside one process, under the
// race detector when tests are. With warm non-nil the strategy cache is
// warm-started from it before the listener is returned, exactly like
// `p2 serve -warm` (warmed reports how many entries the sweep cached).
// Call shutdown when done.
func InProcess(cfg serve.Config, warm []serve.PlanRequest) (baseURL string, warmed int, shutdown func(), err error) {
	s := serve.NewServer(cfg)
	if len(warm) > 0 {
		warmed, err = s.Warm(context.Background(), warm)
		if err != nil {
			return "", warmed, nil, err
		}
	}
	ts := httptest.NewServer(s.Handler())
	return ts.URL, warmed, ts.Close, nil
}

// NewClient returns an http.Client sized for a load run: enough idle
// connections per host that closed-loop clients (or an open-loop burst)
// reuse sockets instead of exhausting ephemeral ports.
func NewClient(concurrency int) *http.Client {
	if concurrency < 8 {
		concurrency = 8
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = concurrency * 2
	transport.MaxIdleConnsPerHost = concurrency * 2
	return &http.Client{Transport: transport}
}
