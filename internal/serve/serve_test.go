package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2"
	"p2/internal/cost"
)

// postPlan sends one /plan request and decodes the response body.
func postPlan(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /plan: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /plan response: %v", err)
	}
	return resp.StatusCode, data
}

// decodePlan parses a 200 /plan body.
func decodePlan(t *testing.T, data []byte) *PlanResponse {
	t.Helper()
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("decoding /plan response: %v\nbody: %s", err, data)
	}
	return &pr
}

const fig2aBody = `{"system": "fig2a", "axes": [16], "reduce": [0], "topk": 5}`

// TestPlanEndpoint checks that an undeadlined /plan response is exactly
// the library's ranking: same strategies, same order, same predictions.
func TestPlanEndpoint(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	code, data := postPlan(t, ts.URL, fig2aBody)
	if code != http.StatusOK {
		t.Fatalf("POST /plan = %d, want 200\nbody: %s", code, data)
	}
	got := decodePlan(t, data)
	if got.Partial || got.Cached {
		t.Fatalf("fresh undeadlined response: partial=%v cached=%v, want false/false", got.Partial, got.Cached)
	}

	want, err := p2.Plan(p2.Fig2aSystem(), p2.Request{Axes: []int{16}, ReduceAxes: []int{0}, TopK: 5})
	if err != nil {
		t.Fatalf("library Plan: %v", err)
	}
	if len(got.Strategies) != len(want.Strategies) {
		t.Fatalf("served %d strategies, library ranked %d", len(got.Strategies), len(want.Strategies))
	}
	for i, st := range want.Strategies {
		g := got.Strategies[i]
		if g.Matrix != st.Matrix.String() || g.Program != st.Program.String() || g.PredictedSec != st.Predicted {
			t.Errorf("rank %d: served (%s, %s, %g), library (%s, %s, %g)",
				i, g.Matrix, g.Program, g.PredictedSec, st.Matrix, st.Program, st.Predicted)
		}
	}
	// What the synthesis cost is wall time and stays out of the response.
	want.Stats.SynthPrograms, want.Stats.SynthElapsed = 0, 0
	if got.Stats != want.Stats {
		t.Errorf("served stats %+v, library stats %+v", got.Stats, want.Stats)
	}
}

// TestCacheHit checks that a repeated request is served from the cache,
// marked as such, and identical to the fresh response.
func TestCacheHit(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first := postPlan(t, ts.URL, fig2aBody)
	fresh := decodePlan(t, first)
	code, second := postPlan(t, ts.URL, fig2aBody)
	if code != http.StatusOK {
		t.Fatalf("repeat POST /plan = %d, want 200", code)
	}
	hit := decodePlan(t, second)
	if !hit.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if fmt.Sprint(hit.Strategies) != fmt.Sprint(fresh.Strategies) {
		t.Fatalf("cached strategies differ from fresh:\nfresh: %v\ncached: %v", fresh.Strategies, hit.Strategies)
	}
	if s.hits.Load() != 1 || s.misses.Load() != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", s.hits.Load(), s.misses.Load())
	}
}

// TestPanicIsolation checks the acceptance scenario: an injected worker
// panic turns into a 500 on that request alone, and the daemon keeps
// serving — the next request (same body) succeeds.
func TestPanicIsolation(t *testing.T) {
	s := NewServer(Config{})
	realPlan := s.planFn
	var inject atomic.Bool
	s.planFn = func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		if inject.Load() {
			panic("injected worker crash")
		}
		return realPlan(ctx, sys, req)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inject.Store(true)
	code, data := postPlan(t, ts.URL, fig2aBody)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500\nbody: %s", code, data)
	}
	if !strings.Contains(string(data), "injected worker crash") {
		t.Fatalf("500 body does not name the panic: %s", data)
	}

	inject.Store(false)
	code, data = postPlan(t, ts.URL, fig2aBody)
	if code != http.StatusOK {
		t.Fatalf("request after panic = %d, want 200 (daemon should keep serving)\nbody: %s", code, data)
	}
	if resp := decodePlan(t, data); len(resp.Strategies) == 0 {
		t.Fatal("request after panic returned no strategies")
	}
	if s.panics.Load() != 1 {
		t.Fatalf("panic counter = %d, want 1", s.panics.Load())
	}
}

// TestPartialNotCached checks that a partial (anytime) result is served
// with Partial set but never enters the cache: the repeat request
// recomputes.
func TestPartialNotCached(t *testing.T) {
	full, err := p2.Plan(p2.Fig2aSystem(), p2.Request{Axes: []int{16}, ReduceAxes: []int{0}, TopK: 5})
	if err != nil {
		t.Fatalf("library Plan: %v", err)
	}
	s := NewServer(Config{})
	var calls atomic.Int64
	s.planFn = func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		calls.Add(1)
		partial := *full
		partial.Partial = true
		return &partial, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		code, data := postPlan(t, ts.URL, fig2aBody)
		if code != http.StatusOK {
			t.Fatalf("request %d = %d, want 200\nbody: %s", i, code, data)
		}
		resp := decodePlan(t, data)
		if !resp.Partial || resp.Cached {
			t.Fatalf("request %d: partial=%v cached=%v, want true/false", i, resp.Partial, resp.Cached)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("planFn ran %d times, want 2 (partial results must not be cached)", calls.Load())
	}
	if s.partials.Load() != 2 {
		t.Fatalf("partial counter = %d, want 2", s.partials.Load())
	}
}

// TestDeadlineBeforeFirstCandidate checks the 504 path: a deadline that
// expires before anything is scored surfaces the context error.
func TestDeadlineBeforeFirstCandidate(t *testing.T) {
	s := NewServer(Config{})
	s.planFn = func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"system": "fig2a", "axes": [16], "timeout_ms": 30}`
	code, data := postPlan(t, ts.URL, body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadlined request = %d, want 504\nbody: %s", code, data)
	}
}

// TestLoadShedding checks that requests beyond MaxInFlight are shed with
// 429 + Retry-After instead of queueing.
func TestLoadShedding(t *testing.T) {
	s := NewServer(Config{MaxInFlight: 1})
	block, entered := make(chan struct{}), make(chan struct{})
	s.planFn = func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		close(entered)
		<-block
		return nil, context.Canceled
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postPlan(t, ts.URL, fig2aBody)
	}()
	<-entered

	// A different request (distinct cache key, so it cannot coalesce)
	// finds the only slot taken.
	resp, err := http.Post(ts.URL+"/plan", "application/json",
		strings.NewReader(`{"system": "fig2a", "axes": [16], "topk": 1}`))
	if err != nil {
		t.Fatalf("POST /plan: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request over capacity = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	close(block)
	<-done
	if s.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.shed.Load())
	}
}

// TestSingleFlight checks that concurrent identical requests coalesce
// onto one computation and all receive its result.
func TestSingleFlight(t *testing.T) {
	s := NewServer(Config{CacheSize: -1}) // no cache: coalescing must do the sharing
	realPlan := s.planFn
	var calls atomic.Int64
	block, entered := make(chan struct{}), make(chan struct{})
	s.planFn = func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		calls.Add(1)
		close(entered)
		<-block
		return realPlan(ctx, sys, req)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	codes := make(chan int, 2)
	go func() {
		code, _ := postPlan(t, ts.URL, fig2aBody)
		codes <- code
	}()
	<-entered // the leader holds the flight; the follower must join it
	go func() {
		code, _ := postPlan(t, ts.URL, fig2aBody)
		codes <- code
	}()
	// Give the follower time to reach the flight map before releasing.
	time.Sleep(50 * time.Millisecond)
	close(block)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("coalesced request = %d, want 200", code)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("planFn ran %d times for identical concurrent requests, want 1", calls.Load())
	}
}

// TestNeverCompletesSanitized checks the wire encoding of +Inf times: a
// down link makes every cross-node strategy infinite, which JSON cannot
// carry — the response must use -1 + never_completes instead.
func TestNeverCompletesSanitized(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	body := `{"system": "a100", "nodes": 2, "faults": "node:1:down", "axes": [32], "topk": 3}`
	code, data := postPlan(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("POST /plan = %d, want 200\nbody: %s", code, data)
	}
	resp := decodePlan(t, data)
	sanitized := 0
	for _, st := range resp.Strategies {
		if st.NeverCompletes {
			if st.PredictedSec != -1 {
				t.Fatalf("never_completes strategy has predicted_s %g, want -1", st.PredictedSec)
			}
			sanitized++
		}
	}
	if sanitized == 0 {
		t.Fatal("no never_completes strategies: a 32-device reduction with node 1 down must cross the down link")
	}
}

// TestBadRequests table-drives the client-error paths.
func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{"system": `, http.StatusBadRequest},
		{"missing system", `{"axes": [16]}`, http.StatusBadRequest},
		{"unknown system", `{"system": "tpu", "axes": [16]}`, http.StatusBadRequest},
		{"missing axes", `{"system": "fig2a"}`, http.StatusBadRequest},
		{"unknown algo", `{"system": "fig2a", "axes": [16], "algo": "warp"}`, http.StatusBadRequest},
		{"unknown measure", `{"system": "fig2a", "axes": [16], "measure": "always"}`, http.StatusBadRequest},
		{"bad faults", `{"system": "fig2a", "axes": [16], "faults": "gpu:99"}`, http.StatusBadRequest},
		{"axes do not cover devices", `{"system": "fig2a", "axes": [3]}`, http.StatusBadRequest},
		{"negative bytes", `{"system": "fig2a", "axes": [16], "bytes": -1}`, http.StatusBadRequest},
		{"nodes on a fixed-shape preset", `{"system": "fig2a", "nodes": 2, "axes": [16]}`, http.StatusBadRequest},
		{"negative nodes", `{"system": "a100", "nodes": -3, "axes": [64]}`, http.StatusBadRequest},
		{"negative timeout_ms", `{"system": "fig2a", "axes": [16], "timeout_ms": -1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, data := postPlan(t, ts.URL, tc.body)
			if code != tc.want {
				t.Fatalf("POST /plan = %d, want %d\nbody: %s", code, tc.want, data)
			}
			var ae apiError
			if err := json.Unmarshal(data, &ae); err != nil || ae.Error == "" {
				t.Fatalf("error response is not {\"error\": ...}: %s", data)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/plan")
	if err != nil {
		t.Fatalf("GET /plan: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /plan = %d, want 405", resp.StatusCode)
	}
}

// TestTooManyDevicesRefused: a system of 2³² or more devices is a 400
// naming the limit, refused while resolving the request — before the
// strategy cache is consulted and without a planner call. superpod:2³²x2³²
// used to resolve to a system of 0 devices and reach the planner.
func TestTooManyDevicesRefused(t *testing.T) {
	s := NewServer(Config{})
	var calls atomic.Int64
	s.planFn = func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		calls.Add(1)
		return nil, fmt.Errorf("planner called for %s", sys.Name)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"system": "superpod:4294967296x4294967296", "axes": [4]}`,
		`{"system": "superpod:65536x8192", "axes": [4294967296]}`,
		`{"system": "a100", "nodes": 536870912, "axes": [16]}`,
	} {
		code, data := postPlan(t, ts.URL, body)
		if code != http.StatusBadRequest || !strings.Contains(string(data), "2^32") {
			t.Errorf("POST %s = %d %s, want a 400 naming 2^32", body, code, data)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("planner ran %d times on refused systems", n)
	}
	if h, m := s.hits.Load(), s.misses.Load(); h+m != 0 {
		t.Errorf("cache consulted for refused systems: %d hits, %d misses", h, m)
	}
}

// TestFaultsOnHugeSystemRefused: "faults" on a system past
// maxFaultedDevices is a 400 before any per-entity table is built. On
// superpod:65536x4096 (2³¹ devices) the fault tables alone would take
// about 34 GB; the refusal allocates under 1 MB.
func TestFaultsOnHugeSystemRefused(t *testing.T) {
	s := NewServer(Config{})
	for _, faults := range []string{"0:0:bw/2", "gpu:*:down"} {
		body := fmt.Sprintf(`{"system": "superpod:65536x4096", "faults": %q, "axes": [2147483648]}`, faults)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		s.handlePlan(rec, httptest.NewRequest(http.MethodPost, "/plan", strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "at most 65536 devices") {
			t.Errorf("POST %s = %d %s, want a 400 naming the bound", body, rec.Code, rec.Body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("POST %s allocated %d bytes while refused, want under 1 MB", body, grew)
		}
	}
	// At the bound a fault still applies (to a reduction group synthesis
	// takes on).
	if _, _, _, err := resolve(&PlanRequest{System: "superpod:1024x8", Faults: "gpu:*:bw/2", Axes: []int{64, 1 << 10}}); err != nil {
		t.Errorf("a fault on a system of %d devices: %v", maxFaultedDevices, err)
	}
}

// TestHealthzAndStatz checks the probes: liveness text and the counter
// payload after a hit/miss pair.
func TestHealthzAndStatz(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("GET /healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	postPlan(t, ts.URL, fig2aBody)
	postPlan(t, ts.URL, fig2aBody)
	resp, err = http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatalf("GET /statz: %v", err)
	}
	defer resp.Body.Close()
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /statz: %v", err)
	}
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("statz requests=%d hits=%d misses=%d, want 2/1/1", st.Requests, st.CacheHits, st.CacheMisses)
	}
	if st.CacheHitRate != 0.5 {
		t.Fatalf("statz cache_hit_rate = %g, want 0.5", st.CacheHitRate)
	}
	if st.Latency.Count != 2 || st.Latency.P50 < 0 {
		t.Fatalf("statz latency %+v, want count 2 and non-negative percentiles", st.Latency)
	}
	for name, want := range map[string]int64{"hit": 1, "full": 1, "partial": 0, "coalesced": 0, "error": 0} {
		if o := st.Outcomes[name]; o.Requests != want || o.Count != int(want) {
			t.Errorf("statz outcome %q = %+v, want %d requests in its window", name, o, want)
		}
	}
}

// TestCacheEviction checks FIFO eviction at CacheSize.
func TestCacheEviction(t *testing.T) {
	s := NewServer(Config{CacheSize: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := []string{
		`{"system": "fig2a", "axes": [16], "topk": 1}`,
		`{"system": "fig2a", "axes": [16], "topk": 2}`,
		`{"system": "fig2a", "axes": [16], "topk": 3}`,
	}
	for _, b := range bodies {
		postPlan(t, ts.URL, b)
	}
	s.mu.Lock()
	entries, evictions := len(s.cache), s.evictions
	s.mu.Unlock()
	if entries != 2 || evictions != 1 {
		t.Fatalf("cache holds %d entries after 3 distinct requests with CacheSize 2 and evicted %d, want 2 and 1", entries, evictions)
	}
	// The oldest request was evicted: repeating it misses.
	misses := s.misses.Load()
	code, _ := postPlan(t, ts.URL, bodies[0])
	if code != http.StatusOK {
		t.Fatalf("repeat of evicted request = %d, want 200", code)
	}
	if s.misses.Load() != misses+1 {
		t.Fatal("repeat of evicted request did not miss the cache")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for the drain log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// listen runs s.ListenAndServe on an ephemeral port and returns the
// resolved address, the drain trigger, ListenAndServe's result and its
// log.
func listen(t *testing.T, s *Server) (addr string, cancel context.CancelFunc, served <-chan error, logw *syncBuffer) {
	t.Helper()
	logw = &syncBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, "127.0.0.1:0", logw) }()

	// The listening line carries the resolved address.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if out := logw.String(); strings.Contains(out, "listening on ") {
			line := out[strings.Index(out, "listening on ")+len("listening on "):]
			return strings.TrimSpace(strings.SplitN(line, "\n", 2)[0]), cancel, done, logw
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no listening line in log: %q", logw.String())
	return "", nil, nil, nil
}

// drained cancels the serve context and fails unless ListenAndServe then
// returns nil within the test's patience.
func drained(t *testing.T, cancel context.CancelFunc, served <-chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ListenAndServe after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return within the drain timeout")
	}
}

// TestGracefulDrain runs the real listener: requests succeed while
// serving, cancelling the context drains and ListenAndServe returns nil
// having logged the drain progression.
func TestGracefulDrain(t *testing.T) {
	addr, cancel, served, logw := listen(t, NewServer(Config{DrainTimeout: 2 * time.Second}))
	code, _ := postPlan(t, "http://"+addr, fig2aBody)
	if code != http.StatusOK {
		t.Fatalf("POST /plan on live listener = %d, want 200", code)
	}
	drained(t, cancel, served)
	out := logw.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "drained") {
		t.Fatalf("drain log missing progression lines: %q", out)
	}
}

// TestDrainStalledClient holds a connection open mid-request while the
// daemon drains — stalled mid-header, or with its headers sent and the
// body stalled after 10 of its 100 declared bytes or after a complete
// request shorter than the declared length. The read timeouts must
// close it so the drain still returns nil instead of running out its
// deadline, both with a drain longer than readHeaderTimeout and with one
// shorter than it.
func TestDrainStalledClient(t *testing.T) {
	stalls := []struct{ name, sent string }{
		{"header", "POST /plan HTTP/1.1\r\nHost: x\r\n"},
		{"body", "POST /plan HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"system\":"},
		{"body-after-value", "POST /plan HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n" + fig2aBody},
	}
	for _, drain := range []time.Duration{2 * time.Second, 500 * time.Millisecond} {
		t.Run(drain.String(), func(t *testing.T) {
			for _, stall := range stalls {
				t.Run(stall.name, func(t *testing.T) {
					addr, cancel, served, _ := listen(t, NewServer(Config{DrainTimeout: drain}))
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Fatalf("dial: %v", err)
					}
					defer conn.Close()
					if _, err := io.WriteString(conn, stall.sent); err != nil {
						t.Fatalf("writing the stalled request: %v", err)
					}
					// The listener accepts in dial order, so once a later
					// connection has been served the stalled one is
					// accepted and held by the server.
					if code, _ := postPlan(t, "http://"+addr, fig2aBody); code != http.StatusOK {
						t.Fatalf("POST /plan on live listener = %d, want 200", code)
					}
					drained(t, cancel, served)
				})
			}
		})
	}
}

// TestPlanOutlivesReadTimeout: the listener's read timeout bounds reading
// a request, not serving it — a plan that runs three times past it on the
// real listener keeps its request context and answers 200.
func TestPlanOutlivesReadTimeout(t *testing.T) {
	const drain = 200 * time.Millisecond // read timeout: drain/2
	s := NewServer(Config{DrainTimeout: drain})
	realPlan := s.planFn
	s.planFn = func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		time.Sleep(3 * drain / 2)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("request context ended mid-plan: %w", err)
		}
		return realPlan(ctx, sys, req)
	}
	addr, cancel, served, _ := listen(t, s)
	if code, data := postPlan(t, "http://"+addr, fig2aBody); code != http.StatusOK {
		t.Fatalf("POST /plan = %d, want 200\nbody: %s", code, data)
	}
	drained(t, cancel, served)
}

// TestKeepAliveOutlivesReadTimeout: the read timeout bounds a request,
// not the idle wait between two requests on one keep-alive connection.
func TestKeepAliveOutlivesReadTimeout(t *testing.T) {
	const drain = 200 * time.Millisecond // read timeout: drain/2
	addr, cancel, served, _ := listen(t, NewServer(Config{DrainTimeout: drain}))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 1; i <= 2; i++ {
		if i > 1 {
			time.Sleep(3 * drain / 2)
		}
		if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d on one connection: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	drained(t, cancel, served)
}

// TestCacheKeyNormalization table-drives the cache-key contract of
// resolve(): requests that differ only in fields the key excludes
// (timeout_ms) or in defaulted-vs-explicit spellings (nodes, reduce,
// algo, system case) must map to one key, while every field that changes
// the answer must split the key.
func TestCacheKeyNormalization(t *testing.T) {
	key := func(t *testing.T, pr PlanRequest) string {
		t.Helper()
		_, _, k, err := resolve(&pr)
		if err != nil {
			t.Fatalf("resolve(%+v): %v", pr, err)
		}
		return k
	}
	base := PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5}
	cases := []struct {
		name string
		a, b PlanRequest
		same bool
	}{
		{"timeout_ms excluded",
			base,
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5, TimeoutMs: 5000},
			true},
		{"nodes defaulted vs explicit",
			PlanRequest{System: "a100", Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5},
			base,
			true},
		{"reduce defaulted vs explicit",
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, TopK: 5},
			base,
			true},
		{"algo defaulted vs explicit ring, case-insensitive",
			base,
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5, Algo: "ring"},
			true},
		{"system name case-insensitive",
			base,
			PlanRequest{System: "A100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5},
			true},
		{"auto is a distinct algo key",
			base,
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5, Algo: "auto"},
			false},
		{"bytes split the key",
			base,
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5, Bytes: 1e9},
			false},
		{"measure mode splits the key",
			base,
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5, Measure: "rerank"},
			false},
		{"reduce axis splits the key",
			base,
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{1}, TopK: 5},
			false},
		{"superpod defaulted vs explicit shape",
			PlanRequest{System: "superpod", Axes: []int{8, 8}},
			PlanRequest{System: "superpod:2x4", Axes: []int{8, 8}},
			true},
		{"superpod shape spelling",
			PlanRequest{System: "superpod:02x04", Axes: []int{8, 8}},
			PlanRequest{System: "superpod:2x4", Axes: []int{8, 8}},
			true},
		{"max_program_size defaulted vs explicit",
			base,
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5, MaxProgramSize: 5},
			true},
		{"topk 0 vs negative",
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}},
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, TopK: -1},
			true},
		{"default payload left out vs spelled out",
			base,
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Reduce: []int{0}, TopK: 5, Bytes: cost.DefaultPayload(p2.A100System(4))},
			true},
		{"fault by coordinates vs by entity id",
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Faults: "node:2:bw/10"},
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Faults: "0:2:bw/10"},
			true},
		{"gpu fault by coordinates vs by entity id",
			PlanRequest{System: "fig2a", Axes: []int{16}, Faults: "gpu:0/1/0/3:lat*4"},
			PlanRequest{System: "fig2a", Axes: []int{16}, Faults: "3:11:lat*4"},
			true},
		{"fault effect splits the key",
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Faults: "node:2:bw/10"},
			PlanRequest{System: "a100", Nodes: 4, Axes: []int{4, 16}, Faults: "node:2:bw/9"},
			false},
		{"fault order splits the key",
			PlanRequest{System: "fig2a", Axes: []int{16}, Faults: "gpu:0:bw/3;gpu:0:bw/7"},
			PlanRequest{System: "fig2a", Axes: []int{16}, Faults: "gpu:0:bw/7;gpu:0:bw/3"},
			false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := key(t, tc.a), key(t, tc.b)
			if tc.same && ka != kb {
				t.Errorf("keys differ:\n%q\n%q", ka, kb)
			}
			if !tc.same && ka == kb {
				t.Errorf("keys collide: %q", ka)
			}
		})
	}

	// Wire-level confirmation: a defaulted request primes the cache for
	// its explicit spelling, timeout_ms notwithstanding.
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	code, _ := postPlan(t, ts.URL, `{"system": "fig2a", "axes": [16], "topk": 5}`)
	if code != http.StatusOK {
		t.Fatalf("priming request = %d, want 200", code)
	}
	code, data := postPlan(t, ts.URL,
		`{"system": "FIG2A", "axes": [16], "reduce": [0], "algo": "ring", "topk": 5, "timeout_ms": 5000}`)
	if code != http.StatusOK {
		t.Fatalf("equivalent request = %d, want 200", code)
	}
	if !decodePlan(t, data).Cached {
		t.Fatal("equivalent spelling of a cached request was not served from the cache")
	}
}

// TestCacheEvictionOrder pins the eviction policy as FIFO, not LRU: a
// cache hit must not refresh an entry's position, so insertion order
// alone decides the victim.
func TestCacheEvictionOrder(t *testing.T) {
	s := NewServer(Config{CacheSize: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := func(topk int) string {
		return fmt.Sprintf(`{"system": "fig2a", "axes": [16], "topk": %d}`, topk)
	}
	for k := 1; k <= 3; k++ {
		if code, _ := postPlan(t, ts.URL, body(k)); code != http.StatusOK {
			t.Fatalf("insert topk=%d = %d, want 200", k, code)
		}
	}
	// Touch the oldest entry: under LRU this would save it; under FIFO
	// it must still be the next victim.
	code, data := postPlan(t, ts.URL, body(1))
	if code != http.StatusOK || !decodePlan(t, data).Cached {
		t.Fatalf("touch of oldest entry: code %d, cached %v, want 200 cached", code, decodePlan(t, data).Cached)
	}
	if code, _ = postPlan(t, ts.URL, body(4)); code != http.StatusOK {
		t.Fatalf("overflow insert = %d, want 200", code)
	}
	// topk=1 (inserted first) is gone despite the recent hit...
	code, data = postPlan(t, ts.URL, body(1))
	if code != http.StatusOK || decodePlan(t, data).Cached {
		t.Fatal("oldest entry survived overflow: eviction is not FIFO")
	}
	// ...while a later insert survived. The re-request above re-inserted
	// topk=1 and thereby evicted topk=2, so topk=3 is the probe.
	code, data = postPlan(t, ts.URL, body(3))
	if code != http.StatusOK || !decodePlan(t, data).Cached {
		t.Fatal("entry inserted after the FIFO victim was evicted early")
	}
}

// TestSingleFlightRace drives N identical concurrent requests through a
// planner stub that refuses to return until all N−1 followers have
// joined the flight: exactly one plan execution, N identical responses
// (modulo each request's own elapsed_ms), and the coalesced counter
// equal to N−1. Run under -race with -shuffle=on in CI, this is the
// coalescing race test.
func TestSingleFlightRace(t *testing.T) {
	const n = 8
	s := NewServer(Config{CacheSize: -1}) // no cache: coalescing must do the sharing
	realPlan := s.planFn
	var calls atomic.Int64
	entered := make(chan struct{})
	s.planFn = func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		calls.Add(1)
		close(entered) // second execution would close twice and panic
		for s.coalesced.Load() < n-1 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
		return realPlan(ctx, sys, req)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, n)
	post := func() {
		code, data := postPlan(t, ts.URL, fig2aBody)
		replies <- reply{code, data}
	}
	go post()
	<-entered // the leader owns the flight; everyone else must follow
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post()
		}()
	}
	wg.Wait()

	var canon []byte
	for i := 0; i < n; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("coalesced request = %d, want 200", r.code)
		}
		resp := decodePlan(t, r.body)
		resp.ElapsedMs = 0 // each response carries its own served latency
		norm, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if canon == nil {
			canon = norm
		} else if !bytes.Equal(canon, norm) {
			t.Fatalf("coalesced responses differ:\n%s\nvs\n%s", canon, norm)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("planFn ran %d times for %d identical concurrent requests, want 1", got, n)
	}
	if got := s.coalesced.Load(); got != n-1 {
		t.Fatalf("coalesced counter = %d, want %d", got, n-1)
	}
}

// TestLatencyPercentilePin pins the /statz percentile math on known
// injected sequences: nearest-rank (sorted[⌈p/100·n⌉−1]) on a partial
// window, a full ring, and a wrapped ring that must have dropped the
// oldest sample. The full-ring p95/p99 values are exactly the ones the
// pre-fix lower-interpolation formula got wrong (972/1013).
func TestLatencyPercentilePin(t *testing.T) {
	t.Run("partial window", func(t *testing.T) {
		s := NewServer(Config{})
		for i := 1; i <= 10; i++ {
			s.observe(outFull, float64(10*i), 0) // 10, 20, ..., 100
		}
		got, _ := s.latency()
		want := LatencyStatz{Count: 10, P50: 50, P90: 90, P95: 100, P99: 100, P999: 100}
		if got != want {
			t.Fatalf("latency() = %+v, want %+v", got, want)
		}
	})
	t.Run("full ring", func(t *testing.T) {
		s := NewServer(Config{})
		for i := 1; i <= latRingSize; i++ {
			s.observe(outFull, float64(i), 0) // 1..1024
		}
		got, _ := s.latency()
		want := LatencyStatz{Count: 1024, P50: 512, P90: 922, P95: 973, P99: 1014, P999: 1023}
		if got != want {
			t.Fatalf("latency() = %+v, want %+v", got, want)
		}
	})
	t.Run("wrapped ring drops oldest", func(t *testing.T) {
		s := NewServer(Config{})
		for i := 1; i <= latRingSize; i++ {
			s.observe(outFull, float64(i), 0)
		}
		s.observe(outFull, 2048, 0) // overwrites sample 1; window is now {2..1024, 2048}
		got, _ := s.latency()
		want := LatencyStatz{Count: 1024, P50: 513, P90: 923, P95: 974, P99: 1015, P999: 1024}
		if got != want {
			t.Fatalf("latency() = %+v, want %+v", got, want)
		}
	})
}

// TestWarm checks the warm-start hook: Warm plans each request into the
// strategy cache exactly once, skips already-cached keys, and the next
// wire request for a warmed key is a cache hit with zero misses.
func TestWarm(t *testing.T) {
	s := NewServer(Config{})
	reqs := []PlanRequest{
		{System: "fig2a", Axes: []int{16}, TopK: 5},
		{System: "fig2a", Axes: []int{4, 4}, TopK: 5},
		// Same key as the first (defaulted vs explicit spelling).
		{System: "FIG2A", Axes: []int{16}, Reduce: []int{0}, Algo: "ring", TopK: 5},
	}
	warmed, err := s.Warm(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Warm: %v", err)
	}
	if warmed != 2 {
		t.Fatalf("Warm planned %d entries, want 2 (third is a duplicate key)", warmed)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, data := postPlan(t, ts.URL, fig2aBody)
	if code != http.StatusOK {
		t.Fatalf("POST /plan after warm = %d, want 200", code)
	}
	if !decodePlan(t, data).Cached {
		t.Fatal("first request for a warmed key was not served from the cache")
	}
	if s.misses.Load() != 0 {
		t.Fatalf("warm-started server took %d misses on a warmed key, want 0", s.misses.Load())
	}

	// A canceled context stops the sweep with partial progress reported.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewServer(Config{}).Warm(ctx, reqs); err == nil {
		t.Fatal("Warm with canceled context returned nil error")
	}

	// NaN and ±Inf payloads reach resolve only through Warm (JSON cannot
	// spell them); each is refused like the CLI's -bytes refuses it.
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewServer(Config{}).Warm(context.Background(), []PlanRequest{{System: "fig2a", Axes: []int{16}, Bytes: b}}); err == nil || !strings.Contains(err.Error(), `"bytes"`) {
			t.Errorf("Warm with bytes %v: err = %v, want a refusal naming \"bytes\"", b, err)
		}
	}

	// A malformed warm request fails the sweep rather than starting a
	// daemon whose cache silently misses what the operator asked for.
	if _, err := NewServer(Config{}).Warm(context.Background(), []PlanRequest{{System: "nonesuch", Axes: []int{4}}}); err == nil {
		t.Fatal("Warm with an unresolvable request returned nil error")
	}
}
