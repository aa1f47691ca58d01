package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2"
	"p2/internal/load"
	"p2/internal/serve"
)

// TestServedPlanEqualsPlan: with the real planner behind the handler, a
// served /plan response is byte for byte the wire form of p2.Plan on the
// request resolve makes of it — strategies, order, predictions and Stats —
// apart from the wall-clock elapsed_ms. It covers the load catalog's
// analytic entries, the shapes serve_fresh plans, at GOMAXPROCS 1, so both
// sides plan at Parallelism 1 and the pruning counters are deterministic.
// Each shape is served twice: by a fresh daemon, and by one that has served
// every shape before it, whose warm synthesis memo may only move syntheses
// to memo hits.
func TestServedPlanEqualsPlan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm := serve.NewServer(serve.Config{}).Handler()
	n := 0
	for _, pr := range load.Catalog() {
		if pr.Measure != "" {
			continue
		}
		n++
		body, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		sys, req, _, err := serve.Resolve(&pr)
		if err != nil {
			t.Fatal(err)
		}
		if req.Parallelism != 1 {
			t.Fatalf("%s: resolved to Parallelism %d, want 1", body, req.Parallelism)
		}
		res, err := p2.Plan(sys, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(serve.BuildResponse(res))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []http.Handler{serve.NewServer(serve.Config{}).Handler(), warm} {
			served := servePlan(t, h, body)
			if h == warm {
				if s, w := served.Stats, res.Stats; s.SynthRuns+s.MemoHits != w.SynthRuns+w.MemoHits {
					t.Errorf("%s: warm daemon synthesized %d and hit the memo %d times for %d placements' %d",
						body, s.SynthRuns, s.MemoHits, w.Placements, w.SynthRuns+w.MemoHits)
				}
				served.Stats.SynthRuns, served.Stats.MemoHits = res.Stats.SynthRuns, res.Stats.MemoHits
			}
			got, err := json.Marshal(served)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s (warm daemon: %v):\nserved  %s\np2.Plan %s", body, h == warm, got, want)
			}
		}
	}
	if n != 14 {
		t.Fatalf("the catalog has %d analytic entries, want 14", n)
	}
}

// servePlan serves one /plan body and decodes the 200 response, with its
// wall-clock elapsed_ms zeroed.
func servePlan(t *testing.T, h http.Handler, body []byte) *serve.PlanResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
	}
	var served serve.PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	served.ElapsedMs = 0
	return &served
}

// TestPlanBodiesEqualWriteJSON gates the encode-once wire format: every
// 200 /plan body — a single-flight leader's, a coalesced follower's and a
// cache hit's — is byte for byte writeJSON of the PlanResponse it stands
// for. It covers the 16 catalog entries (two of them measured, so with
// measured_s) and a down-link entry (never_completes, -1), each through
// the handler and through writePlan at the elapsed_ms values where
// encoding/json's float format changes shape.
func TestPlanBodiesEqualWriteJSON(t *testing.T) {
	reqs := append(load.Catalog(), serve.PlanRequest{System: "a100", Nodes: 2, Faults: "node:1:down", Axes: []int{32}, TopK: 3})
	var measured, never bool
	for _, pr := range reqs {
		sys, req, _, err := serve.Resolve(&pr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p2.Plan(sys, req)
		if err != nil {
			t.Fatal(err)
		}
		resp := *serve.BuildResponse(res)
		tail, err := serve.EncodeTail(&resp)
		if err != nil {
			t.Fatal(err)
		}
		for _, ms := range []float64{0, 5e-7, 1e-6, 0.0123456789, 12.5, 1e21} {
			for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}} {
				rec := httptest.NewRecorder()
				serve.WritePlan(rec, tail, flags[0], flags[1], ms)
				want := resp
				want.Partial = flags[0]
				if got := rec.Body.Bytes(); !bytes.Equal(got, serve.WireBody(t, want, flags[1], got)) {
					t.Fatalf("%s system at elapsed_ms %g, partial/cached %v: writePlan wrote\n%s", pr.System, ms, flags, got)
				}
			}
		}

		// The handler: a leader holds the flight until a follower has
		// joined it, then a repeat hits the cache.
		s := serve.NewServer(serve.Config{})
		entered, release := make(chan struct{}), make(chan struct{})
		serve.SetPlanFn(s, func(context.Context, *p2.System, p2.Request) (*p2.PlanResult, error) {
			close(entered)
			<-release
			return res, nil
		})
		body, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		post := func() []byte {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("%s: status %d: %s", body, rec.Code, rec.Body)
			}
			return rec.Body.Bytes()
		}
		var bodies [2][]byte
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); bodies[0] = post() }()
		<-entered
		go func() { defer wg.Done(); bodies[1] = post() }()
		for serve.Coalesced(s) == 0 {
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()
		for i, got := range append(bodies[:], post()) {
			if !bytes.Equal(got, serve.WireBody(t, resp, i == 2, got)) {
				t.Fatalf("%s: the %s's body is not writeJSON of its response:\n%s", body, [...]string{"leader", "follower", "cache hit"}[i], got)
			}
			measured = measured || strings.Contains(string(got), `"measured_s"`)
			never = never || strings.Contains(string(got), `"never_completes": true`)
		}
	}
	if !measured || !never {
		t.Fatalf("covered measured_s: %v, never_completes: %v; want both", measured, never)
	}
}

// TestFlightLandsAsCacheEntry: a leader stalled until a follower has
// joined its flight plans once for both, and a repeat after the flight
// landed is a hit on that same flight, not a second plan. With caching
// off the landed flight leaves the table and the repeat plans again.
func TestFlightLandsAsCacheEntry(t *testing.T) {
	for _, tc := range []struct {
		cacheSize int
		plans     int64
		cached    bool
	}{{0, 1, true}, {-1, 2, false}} {
		s := serve.NewServer(serve.Config{CacheSize: tc.cacheSize})
		var calls atomic.Int64
		entered, release := make(chan struct{}), make(chan struct{})
		serve.SetPlanFn(s, func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
			if calls.Add(1) == 1 {
				close(entered)
				<-release
			}
			return p2.Plan(sys, req)
		})
		h := s.Handler()
		post := func() *serve.PlanResponse {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan", strings.NewReader(`{"system": "fig2a", "axes": [16], "topk": 3}`)))
			var resp serve.PlanResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
				t.Errorf("CacheSize %d: status %d: %s", tc.cacheSize, rec.Code, rec.Body)
			}
			return &resp
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); post() }()
		<-entered
		go func() { defer wg.Done(); post() }()
		for serve.Coalesced(s) == 0 {
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()
		if got := post(); got.Cached != tc.cached {
			t.Errorf("CacheSize %d: repeat cached = %v, want %v", tc.cacheSize, got.Cached, tc.cached)
		}
		if got := calls.Load(); got != tc.plans {
			t.Errorf("CacheSize %d: planFn ran %d times, want %d", tc.cacheSize, got, tc.plans)
		}
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps no body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// rewindBody is a request body that can be re-read from the start.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// BenchmarkServeHit is the daemon's hit path without a socket:
// Server.Handler answering the 16 catalog bodies in turn, every one a
// cache hit on a warmed entry.
func BenchmarkServeHit(b *testing.B) {
	s := serve.NewServer(serve.Config{})
	cat := load.Catalog()
	if _, err := s.Warm(context.Background(), cat); err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(cat))
	for i := range cat {
		var err error
		if bodies[i], err = json.Marshal(cat[i]); err != nil {
			b.Fatal(err)
		}
	}
	h, w, rb := s.Handler(), &discardWriter{h: http.Header{}}, &rewindBody{}
	r := httptest.NewRequest(http.MethodPost, "/plan", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(bodies[i%len(bodies)])
		r.Body = rb
		h.ServeHTTP(w, r)
	}
}
