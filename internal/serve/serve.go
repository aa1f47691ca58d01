// Package serve implements planning-as-a-service: an HTTP/JSON daemon
// over the p2 planning engine, with per-request deadlines, anytime
// (best-so-far) rankings, panic isolation, a single-flight strategy
// cache, bounded in-flight concurrency with load shedding, and graceful
// drain. DESIGN.md §11 states the full service and cancellation
// contract; `p2 serve` is the CLI front end.
//
// Endpoints:
//
//	POST /plan    — plan one request (JSON body, see PlanRequest)
//	GET  /healthz — liveness probe ("ok")
//	GET  /statz   — service counters and latency percentiles (JSON)
//
// The daemon is a transport wrapper around p2.Planner.PlanCtx and adds
// no nondeterminism to planning itself: an undeadlined /plan request
// returns exactly what PlanCtx returns, and the cache only ever stores
// complete (non-partial) results, so a cache hit is identical to
// recomputing. All requests share one Planner, so repeat traffic also
// hits a warm synthesis memo even on a cache miss.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2"
	"p2/internal/plan"
	"p2/internal/synth"
)

// Config tunes the daemon; the zero value serves with sensible defaults.
type Config struct {
	// MaxInFlight bounds concurrent /plan computations; requests beyond
	// it are shed with 429 + Retry-After rather than queued, keeping the
	// daemon responsive under overload. 0 means 2 × GOMAXPROCS.
	MaxInFlight int
	// CacheSize bounds the strategy cache (complete responses, evicted
	// FIFO). 0 means 256; negative disables caching.
	CacheSize int
	// MemoCap bounds the shared planner's synthesis memo (see
	// p2.NewPlanner). 0 means 4096; negative means unbounded.
	MemoCap int
	// DefaultTimeout is the per-request planning deadline applied when a
	// request carries no timeout_ms. 0 means no deadline.
	DefaultTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish once the serve context is cancelled. 0 means 5s.
	DrainTimeout time.Duration
}

// PlanRequest is the JSON body of POST /plan. System/Axes are required;
// everything else defaults exactly like the CLI planning flags (reduce
// [0], algorithm Ring, paper payload, measure off).
type PlanRequest struct {
	// System is a preset name as understood by p2.ParseSystem: "a100",
	// "v100", "fig2a" or "superpod[:PxN]"; Nodes scales the a100/v100
	// presets (0 means 4, never negative) and must be 0 on fixed shapes.
	System string `json:"system"`
	Nodes  int    `json:"nodes,omitempty"`
	// Faults optionally degrades the system's fabric, in the
	// topology.ParseFaults grammar (e.g. "node:0/1:bw/10").
	Faults string `json:"faults,omitempty"`
	// Axes are the parallelism axis sizes; Reduce the reduction axis
	// indices (default [0]).
	Axes   []int `json:"axes"`
	Reduce []int `json:"reduce,omitempty"`
	// Algo pins the modelled algorithm ("Ring", "Tree",
	// "HalvingDoubling", case-insensitive), or "auto" searches the
	// per-step assignment. Empty means Ring.
	Algo string `json:"algo,omitempty"`
	// Bytes, TopK and MaxProgramSize map to the p2.Request fields of the
	// same names (0 means the engine default).
	Bytes          float64 `json:"bytes,omitempty"`
	TopK           int     `json:"topk,omitempty"`
	MaxProgramSize int     `json:"max_program_size,omitempty"`
	// Measure selects measured-in-the-loop planning: "off", "rerank" or
	// "rank-all" (empty means off).
	Measure string `json:"measure,omitempty"`
	// TimeoutMs is the per-request planning deadline in milliseconds;
	// past it the response is the best-so-far ranking with "partial"
	// set. 0 falls back to the server's DefaultTimeout; negative is refused.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// PlanStrategy is one ranked candidate of a /plan response.
type PlanStrategy struct {
	Matrix  string `json:"matrix"`
	Program string `json:"program"`
	Algo    string `json:"algo"`
	// PredictedSec (and MeasuredSec in measured modes) are seconds. A
	// strategy routing traffic over a down link never completes: its
	// time is -1 with NeverCompletes set, since JSON has no +Inf.
	PredictedSec   float64 `json:"predicted_s"`
	MeasuredSec    float64 `json:"measured_s,omitempty"`
	NeverCompletes bool    `json:"never_completes,omitempty"`
}

// PlanResponse is the JSON body of a successful /plan response.
type PlanResponse struct {
	// Partial marks an anytime result: the request's deadline expired
	// mid-plan and Strategies is the best-so-far ranking (every entry
	// fully scored and correctly ordered among those present, but not
	// necessarily a prefix of the complete ranking). Partial results are
	// never cached; repeating the request recomputes it.
	Partial bool `json:"partial"`
	// Cached reports that the response was served from the strategy
	// cache (always a complete result, identical to recomputing).
	Cached bool `json:"cached"`
	// ElapsedMs is this request's wall-clock service time.
	ElapsedMs  float64        `json:"elapsed_ms"`
	Strategies []PlanStrategy `json:"strategies"`
	Stats      plan.Stats     `json:"stats"`
}

// Statz is the JSON body of /statz. Every counter is cumulative since
// startup, so a load harness can difference two snapshots to account for
// exactly its own traffic (internal/load cross-checks its client-side
// counts against these deltas).
type Statz struct {
	Requests     int64   `json:"requests"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`
	// Coalesced counts followers: requests that joined an identical
	// in-flight computation (single-flight) instead of planning
	// themselves. Each coalesced request is also a cache miss.
	Coalesced int64        `json:"coalesced"`
	Shed      int64        `json:"shed"`
	Panics    int64        `json:"panics"`
	Partials  int64        `json:"partials"`
	InFlight  int          `json:"in_flight"`
	Latency   LatencyStatz `json:"latency_ms"`
}

// LatencyStatz reports percentiles over the last latRingSize served
// /plan responses, in milliseconds. Percentiles are nearest-rank: p is
// the smallest window value ≥ p percent of the window (index
// ⌈p/100·n⌉−1 of the sorted window), pinned by TestLatencyPercentilePin.
type LatencyStatz struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// latRingSize is the served-latency window /statz percentiles cover.
const latRingSize = 1024

// readHeaderTimeout bounds how long a connection may take to send its
// headers, and its whole request, lowered to half a shorter DrainTimeout:
// a connection stalled mid-header or mid-body is not idle, so Shutdown
// would otherwise wait out the whole drain for it and fail.
const readHeaderTimeout = time.Second

// flight is one in-flight /plan computation: concurrent identical
// requests coalesce onto it (single-flight) and share the leader's
// outcome — including a partial or failed one; a follower that wants a
// fresh computation retries after the flight lands.
type flight struct {
	done   chan struct{}
	resp   *PlanResponse // nil unless status == 200
	status int
	errMsg string
}

// Server is the planning daemon. Construct with NewServer; serve via
// Handler (any http.Server) or ListenAndServe (graceful drain included).
type Server struct {
	cfg Config
	// planFn computes one request; it is p2.Planner.PlanCtx on the
	// shared planner, overridable by tests to inject panics and stalls.
	planFn func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error)
	// sem bounds in-flight computations (acquire non-blocking: full
	// means shed).
	sem chan struct{}

	mu      sync.Mutex
	cache   map[string]*PlanResponse
	order   []string // cache keys in insertion order, for FIFO eviction
	flights map[string]*flight

	requests  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	shed      atomic.Int64
	panics    atomic.Int64
	partials  atomic.Int64

	latMu sync.Mutex
	lat   [latRingSize]float64
	latN  int
}

// NewServer builds a daemon with its shared planner and normalized
// configuration.
func NewServer(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.MemoCap == 0 {
		cfg.MemoCap = 4096
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	planner := p2.NewPlanner(cfg.MemoCap)
	return &Server{
		cfg:     cfg,
		planFn:  planner.PlanCtx,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		cache:   map[string]*PlanResponse{},
		flights: map[string]*flight{},
	}
}

// Handler returns the daemon's route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/plan", s.handlePlan)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	return mux
}

// ListenAndServe serves on addr until ctx is cancelled, then drains
// gracefully: no new connections, in-flight requests get up to
// DrainTimeout to finish. The listening line (with the resolved address,
// so ":0" callers learn their port) and the drain progress go to logw.
func (s *Server) ListenAndServe(ctx context.Context, addr string, logw io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "p2 serve listening on %s\n", ln.Addr())
	// IdleTimeout -1 keeps idle keep-alive connections open as before;
	// left 0 they would inherit ReadTimeout. No read is pending while a
	// handler runs until the body has been read to its end, and net/http
	// lifts the read deadline then, so a plan that runs past ReadTimeout
	// keeps its request context.
	read := min(readHeaderTimeout, s.cfg.DrainTimeout/2)
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: read, ReadTimeout: read, IdleTimeout: -1}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(logw, "p2 serve draining (in-flight requests get up to %s)\n", s.cfg.DrainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout) //p2:ctx-ok drain runs after the serve ctx is already cancelled; the fresh root gives in-flight requests their bounded grace
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	fmt.Fprintf(logw, "p2 serve drained\n")
	return nil
}

// Warm plans each request on the shared planner and stores the complete
// results in the strategy cache, so the first client to ask gets a cache
// hit instead of paying a cold plan — call it before the listener
// accepts traffic (`p2 serve -warm` does, with the paper-suite catalog).
// Warming also fills the planner's synthesis memo, so even warm-set
// misses plan against shared synthesis runs. Warm responses do not touch
// the /statz request counters: the daemon's accounting covers served
// traffic only. Partial results (ctx deadline mid-warm) are not cached;
// a cancelled context stops the sweep with its error. The count of
// entries actually cached is returned either way. An invalid warm
// request is a configuration bug and fails the sweep immediately.
func (s *Server) Warm(ctx context.Context, reqs []PlanRequest) (int, error) {
	warmed := 0
	for i := range reqs {
		pr := reqs[i]
		sys, req, key, err := resolve(&pr)
		if err != nil {
			return warmed, fmt.Errorf("serve: warm request %d: %w", i, err)
		}
		if _, ok := s.cacheGet(key); ok {
			continue
		}
		res, err := s.runPlan(ctx, sys, req)
		if err != nil {
			return warmed, fmt.Errorf("serve: warm request %d: %w", i, err)
		}
		if res.Partial {
			continue
		}
		s.mu.Lock()
		s.cacheAdd(key, buildResponse(res))
		s.mu.Unlock()
		warmed++
		if err := ctx.Err(); err != nil {
			return warmed, fmt.Errorf("serve: warm: %w", err)
		}
	}
	return warmed, nil
}

// handlePlan serves POST /plan: decode → cache → coalesce/shed → plan
// under the request deadline → respond.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	s.requests.Add(1)
	start := time.Now() //p2:timing-ok served-latency reporting for /statz and elapsed_ms, never ranked
	var pr PlanRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&pr); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	sys, req, key, err := resolve(&pr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	if resp, ok := s.cacheGet(key); ok {
		s.hits.Add(1)
		resp.ElapsedMs = s.sinceMs(start)
		writeJSON(w, http.StatusOK, resp)
		s.observe(resp.ElapsedMs)
		return
	}
	s.misses.Add(1)

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if pr.TimeoutMs > 0 {
		timeout = time.Duration(pr.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		// Follower: an identical request is already computing; share its
		// outcome rather than burn a second worker on the same answer.
		s.mu.Unlock()
		s.coalesced.Add(1)
		select {
		case <-f.done:
			s.respondFlight(w, f, start)
		case <-ctx.Done():
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable,
				"deadline expired waiting for an identical in-flight request; retry for a fresh computation")
		}
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		// At capacity: shed instead of queueing, so latency stays honest
		// and the client knows to back off.
		s.mu.Unlock()
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "server at planning capacity")
		return
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	res, perr := s.runPlan(ctx, sys, req)
	f.status, f.resp, f.errMsg = s.outcome(res, perr)

	s.mu.Lock()
	delete(s.flights, key)
	if f.status == http.StatusOK && !f.resp.Partial {
		s.cacheAdd(key, f.resp)
	}
	s.mu.Unlock()
	<-s.sem
	close(f.done)
	s.respondFlight(w, f, start)
}

// runPlan executes one planning computation with panic isolation: a
// panicking worker (surfaced by the engine as *plan.PanicError, or by a
// panic crossing planFn itself) fails this request alone instead of
// taking the daemon down.
func (s *Server) runPlan(ctx context.Context, sys *p2.System, req p2.Request) (res *p2.PlanResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = &panicFailure{val: r}
		}
	}()
	res, err = s.planFn(ctx, sys, req)
	var pe *plan.PanicError
	if errors.As(err, &pe) {
		s.panics.Add(1)
		err = &panicFailure{val: pe.Value}
	}
	return res, err
}

// panicFailure marks a request that died to a recovered panic (mapped to
// 500, unlike client errors).
type panicFailure struct{ val any }

func (e *panicFailure) Error() string {
	return fmt.Sprintf("internal error: planning panicked: %v", e.val)
}

// outcome maps a planning result to the flight's HTTP outcome. PlanCtx
// already folds deadline expiry into the anytime contract: a partial
// ranking arrives as a normal result with Partial set; only a deadline
// that beat the first scored candidate surfaces as a context error.
func (s *Server) outcome(res *p2.PlanResult, err error) (int, *PlanResponse, string) {
	switch {
	case err == nil:
		if res.Partial {
			s.partials.Add(1)
		}
		return http.StatusOK, buildResponse(res), ""
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, nil,
			"deadline expired before any candidate was scored; raise timeout_ms"
	default:
		var pf *panicFailure
		if errors.As(err, &pf) {
			return http.StatusInternalServerError, nil, err.Error()
		}
		return http.StatusBadRequest, nil, err.Error()
	}
}

// respondFlight writes a flight's outcome with this request's own
// elapsed time.
func (s *Server) respondFlight(w http.ResponseWriter, f *flight, start time.Time) {
	if f.status != http.StatusOK {
		httpError(w, f.status, f.errMsg)
		return
	}
	resp := *f.resp // shallow copy: Strategies/Stats are shared read-only
	resp.ElapsedMs = s.sinceMs(start)
	writeJSON(w, http.StatusOK, &resp)
	s.observe(resp.ElapsedMs)
}

// buildResponse projects a plan result to the wire shape, folding +Inf
// times (down-link routes that never complete) into -1 + never_completes
// since JSON cannot carry infinities.
func buildResponse(res *p2.PlanResult) *PlanResponse {
	resp := &PlanResponse{
		Partial:    res.Partial,
		Stats:      res.Stats,
		Strategies: make([]PlanStrategy, len(res.Strategies)),
	}
	for i, st := range res.Strategies {
		ps := PlanStrategy{
			Matrix:       st.Matrix.String(),
			Program:      st.Program.String(),
			Algo:         st.AlgoString(),
			PredictedSec: st.Predicted,
			MeasuredSec:  st.Measured,
		}
		if math.IsInf(ps.PredictedSec, 1) {
			ps.PredictedSec, ps.NeverCompletes = -1, true
		}
		if math.IsInf(ps.MeasuredSec, 1) {
			ps.MeasuredSec, ps.NeverCompletes = -1, true
		}
		resp.Strategies[i] = ps
	}
	return resp
}

// resolve validates a wire request against the shared CLI vocabulary
// (p2.ParseSystem, topology.ParseFaults, p2.ParseAlgorithms,
// p2.ParseMeasureMode) and derives the cache key from the resolved
// fields, so that spellings that plan identically share one entry: the
// system's own name, topk clamped at 0, max_program_size defaulted. The
// key deliberately excludes timeout_ms: a cached complete result
// satisfies any deadline.
func resolve(pr *PlanRequest) (*p2.System, p2.Request, string, error) {
	if pr.System == "" {
		return nil, p2.Request{}, "", fmt.Errorf(`missing "system"`)
	}
	sys, err := p2.ParseSystem(pr.System, pr.Nodes)
	if err != nil {
		return nil, p2.Request{}, "", err
	}
	if pr.Faults != "" {
		ov, err := p2.ParseFaults(sys, pr.Faults)
		if err != nil {
			return nil, p2.Request{}, "", err
		}
		if sys, err = sys.WithOverrides(ov...); err != nil {
			return nil, p2.Request{}, "", err
		}
	}
	if len(pr.Axes) == 0 {
		return nil, p2.Request{}, "", fmt.Errorf(`missing "axes"`)
	}
	if pr.TimeoutMs < 0 {
		return nil, p2.Request{}, "", fmt.Errorf(`"timeout_ms" must not be negative (got %d)`, pr.TimeoutMs)
	}
	if !(pr.Bytes >= 0) {
		// p2.Request treats bytes <= 0 as "use the paper default", so a
		// negative would silently plan at ~17 GB; the CLI refuses a
		// negative -bytes for the same reason. NaN (from Warm) fails too.
		return nil, p2.Request{}, "", fmt.Errorf(`"bytes" must be a non-negative number (got %g)`, pr.Bytes)
	}
	reduce := pr.Reduce
	if len(reduce) == 0 {
		reduce = []int{0}
	}
	req := p2.Request{
		Axes:           pr.Axes,
		ReduceAxes:     reduce,
		Algo:           p2.Ring,
		Bytes:          pr.Bytes,
		TopK:           max(pr.TopK, 0),
		MaxProgramSize: pr.MaxProgramSize,
	}
	if req.MaxProgramSize <= 0 {
		req.MaxProgramSize = synth.DefaultMaxSize
	}
	if pr.Algo != "" {
		if req.Algo, req.Algos, err = p2.ParseAlgorithms(pr.Algo); err != nil {
			return nil, p2.Request{}, "", err
		}
	}
	algoKey := req.Algo.String()
	if req.Algos != nil {
		algoKey = "auto"
	}
	if pr.Measure != "" {
		if req.Measure, err = p2.ParseMeasureMode(pr.Measure); err != nil {
			return nil, p2.Request{}, "", err
		}
	}
	key := fmt.Sprintf("%s|%s|%v|%v|%s|%g|%d|%d|%s",
		sys.Name, pr.Faults, pr.Axes, reduce,
		algoKey, pr.Bytes, req.TopK, req.MaxProgramSize, req.Measure)
	return sys, req, key, nil
}

// cacheGet returns a per-request copy of the cached response for key.
func (s *Server) cacheGet(key string) (*PlanResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cache[key]
	if !ok {
		return nil, false
	}
	resp := *c // shallow copy: Strategies/Stats are shared read-only
	resp.Cached = true
	return &resp, true
}

// cacheAdd stores a complete response, evicting the oldest entry past
// CacheSize. Caller holds s.mu.
func (s *Server) cacheAdd(key string, resp *PlanResponse) {
	if s.cfg.CacheSize < 0 {
		return
	}
	if _, ok := s.cache[key]; ok {
		return
	}
	s.cache[key] = resp
	s.order = append(s.order, key)
	for len(s.order) > s.cfg.CacheSize {
		delete(s.cache, s.order[0])
		s.order = s.order[1:]
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.hits.Load(), s.misses.Load()
	st := Statz{
		Requests:    s.requests.Load(),
		CacheHits:   hits,
		CacheMisses: misses,
		Coalesced:   s.coalesced.Load(),
		Shed:        s.shed.Load(),
		Panics:      s.panics.Load(),
		Partials:    s.partials.Load(),
		InFlight:    len(s.sem),
	}
	if hits+misses > 0 {
		st.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	s.mu.Lock()
	st.CacheEntries = len(s.cache)
	s.mu.Unlock()
	st.Latency = s.latency()
	writeJSON(w, http.StatusOK, &st)
}

// sinceMs converts a served request's start time to elapsed
// milliseconds.
func (s *Server) sinceMs(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond) //p2:timing-ok served-latency reporting for /statz and elapsed_ms, never ranked
}

// observe records one served latency into the /statz percentile window.
func (s *Server) observe(ms float64) {
	s.latMu.Lock()
	s.lat[s.latN%latRingSize] = ms
	s.latN++
	s.latMu.Unlock()
}

// latency snapshots the served-latency window and computes percentiles.
func (s *Server) latency() LatencyStatz {
	s.latMu.Lock()
	n := s.latN
	if n > latRingSize {
		n = latRingSize
	}
	win := make([]float64, n)
	copy(win, s.lat[:n])
	s.latMu.Unlock()
	if n == 0 {
		return LatencyStatz{}
	}
	sort.Float64s(win)
	pct := func(p float64) float64 { return Percentile(win, p) }
	return LatencyStatz{Count: n, P50: pct(50), P90: pct(90), P95: pct(95), P99: pct(99), P999: pct(99.9)}
}

// Percentile returns the nearest-rank p-th percentile of a sorted,
// non-empty sample: the smallest value v such that at least p percent of
// the sample is ≤ v, i.e. sorted[⌈p/100·n⌉−1]. The previous
// lower-interpolation form ((n−1)·p/100, truncated) sat one rank low on
// a full window — p99 of 1..1024 read 1013 instead of 1014 — which
// TestLatencyPercentilePin now pins closed. Shared with the load harness
// so client- and server-side percentiles agree by construction.
func Percentile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// apiError is the JSON body of every non-200 response.
type apiError struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
