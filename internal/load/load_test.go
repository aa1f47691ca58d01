package load

import (
	"bytes"
	"cmp"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2/internal/serve"
)

// TestGenerateDeterministic locks the seeded-determinism contract of the
// acceptance criteria: same config ⇒ byte-identical request stream,
// different seed ⇒ a different stream.
func TestGenerateDeterministic(t *testing.T) {
	cfg := WorkloadConfig{Seed: 42, HotFrac: 0.5, TimeoutFrac: 0.1, MalformedFrac: 0.1}
	a, err := Generate(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different request streams")
	}
	cfg.Seed = 43
	c, err := Generate(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical request streams")
	}
}

// TestGenerateEqualsPerRequestMarshal holds Generate, which encodes each
// hot catalog entry once per call, to the stream a json.Marshal per
// request produces with the same draws, for seeds 1–10 on the all-hot mix
// and on p2 loadtest's default mix.
func TestGenerateEqualsPerRequestMarshal(t *testing.T) {
	mixes := map[string]WorkloadConfig{
		"hot":      {HotFrac: 1, HotSetSize: 16},
		"loadtest": {HotFrac: 0.5, TimeoutFrac: 0.05, MalformedFrac: 0.05},
	}
	for name, cfg := range mixes {
		for seed := int64(1); seed <= 10; seed++ {
			cfg.Seed = seed
			got, err := Generate(cfg, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if want := marshalEach(t, cfg, 2000); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s mix, seed %d: stream differs from per-request json.Marshal", name, seed)
			}
		}
	}
}

// marshalEach is Generate with one json.Marshal per request: the same rng
// draws in the same order (DESIGN.md §12.2).
func marshalEach(t *testing.T, cfg WorkloadConfig, n int) []Request {
	t.Helper()
	cat := Catalog()
	hot := min(cmp.Or(cfg.HotSetSize, HotSetSize), len(cat))
	rng := rand.New(rand.NewSource(cfg.Seed))
	encode := func(pr serve.PlanRequest) string {
		b, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	out := make([]Request, n)
	fresh := 0
	for i := range out {
		u := rng.Float64()
		switch {
		case u < cfg.MalformedFrac:
			out[i] = Request{Kind: KindMalformed, Body: malformedBodies[rng.Intn(len(malformedBodies))]}
		case u < cfg.MalformedFrac+cfg.TimeoutFrac:
			pr := cat[rng.Intn(len(cat))]
			pr.Bytes, pr.TimeoutMs = freshBytes(fresh), 1
			fresh++
			out[i] = Request{Kind: KindDeadlined, Body: encode(pr)}
		case u < cfg.MalformedFrac+cfg.TimeoutFrac+cfg.HotFrac:
			out[i] = Request{Kind: KindHot, Body: encode(cat[rng.Intn(hot)])}
		default:
			pr := cat[rng.Intn(len(cat))]
			pr.Bytes = freshBytes(fresh)
			fresh++
			out[i] = Request{Kind: KindFresh, Body: encode(pr)}
		}
	}
	return out
}

// TestGenerateMix checks the fraction accounting: every kind the config
// asks for appears, hot requests repeat keys (that is their job), fresh
// and deadlined bodies are unique, and a zero fraction generates none of
// that kind. A negative count and a fraction that is not a number ≥ 0 in
// a sum ≤ 1 are refused.
func TestGenerateMix(t *testing.T) {
	const n = 1000
	stream, err := Generate(WorkloadConfig{Seed: 7, HotFrac: 0.4, TimeoutFrac: 0.1, MalformedFrac: 0.1}, n)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Kind]int{}
	uniq := map[string]int{}
	for _, r := range stream {
		counts[r.Kind]++
		uniq[r.Body]++
	}
	if len(stream) != n {
		t.Fatalf("stream length %d, want %d", len(stream), n)
	}
	for kind, frac := range map[Kind]float64{KindHot: 0.4, KindDeadlined: 0.1, KindMalformed: 0.1} {
		got := float64(counts[kind]) / n
		if got < frac/2 || got > frac*2 {
			t.Errorf("%s fraction %.3f, want near %.2f", kind, got, frac)
		}
	}
	if counts[KindFresh] == 0 {
		t.Error("no fresh requests in a 0.6-fresh mix")
	}
	for _, r := range stream {
		switch r.Kind {
		case KindFresh, KindDeadlined:
			if uniq[r.Body] != 1 {
				t.Fatalf("%s body repeats %d times, want unique: %s", r.Kind, uniq[r.Body], r.Body)
			}
		case KindHot:
			// The hot set has HotSetSize members, so with hundreds of hot
			// draws each body must repeat.
			if uniq[r.Body] < 2 {
				t.Fatalf("hot body occurs once, cannot hit the cache: %s", r.Body)
			}
		case KindMalformed:
			// covered below
		}
	}

	pure, err := Generate(WorkloadConfig{Seed: 7}, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pure {
		if r.Kind != KindFresh {
			t.Fatalf("zero-fraction config generated a %s request", r.Kind)
		}
	}

	if _, err := Generate(WorkloadConfig{HotFrac: 0.7, TimeoutFrac: 0.4}, 1); err == nil {
		t.Fatal("fractions summing past 1 were accepted")
	}
	if _, err := Generate(WorkloadConfig{}, -1); err == nil {
		t.Error("negative request count was accepted")
	}
	for _, f := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, cfg := range []WorkloadConfig{{HotFrac: f}, {TimeoutFrac: f}, {MalformedFrac: f}} {
			if _, err := Generate(cfg, 1); err == nil {
				t.Errorf("%+v was accepted", cfg)
			}
		}
	}
}

// TestMalformedBodiesRejectedPreCache posts each malformed body to a
// live server and checks it gets a 400 without touching the hit/miss
// counters — the property the cross-check equation
// hits+misses == sent−malformed depends on.
func TestMalformedBodiesRejectedPreCache(t *testing.T) {
	baseURL, _, shutdown, err := InProcess(serve.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	client := &http.Client{}
	for _, body := range malformedBodies {
		resp, err := client.Post(baseURL+"/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed body got %d, want 400: %s", resp.StatusCode, body)
		}
	}
	st, err := FetchStatz(client, baseURL)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("malformed bodies moved the cache counters (hits %d, misses %d): they must be rejected before the cache lookup",
			st.CacheHits, st.CacheMisses)
	}
	if st.Requests != int64(len(malformedBodies)) {
		t.Fatalf("requests counter %d, want %d", st.Requests, len(malformedBodies))
	}
}

// TestRunInProcessWarm is the harness exercising its own acceptance
// criteria in miniature: a closed-loop run against a warm in-process
// server reports nonzero throughput, zero unexpected errors, a clean
// /statz cross-check, and a cache hit on the first hot request.
func TestRunInProcessWarm(t *testing.T) {
	stream, err := Generate(WorkloadConfig{Seed: 1, HotFrac: 0.5, TimeoutFrac: 0.05, MalformedFrac: 0.05}, 80)
	if err != nil {
		t.Fatal(err)
	}
	baseURL, warmed, shutdown, err := InProcess(serve.Config{}, Catalog())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if warmed != len(Catalog()) {
		t.Fatalf("warmed %d entries, want %d", warmed, len(Catalog()))
	}
	rep, err := Run(NewClient(4), baseURL, stream, Options{Clients: 4, Window: 20, CrossCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("run failed: errors %d, crosscheck %v, samples %v",
			rep.Counts.Errors, rep.CrossCheck, rep.ErrorSamples)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput %.1f, want > 0", rep.Throughput)
	}
	if rep.Latency.P99 <= 0 {
		t.Fatalf("p99 %.2f, want > 0", rep.Latency.P99)
	}
	if !rep.FirstHotCached {
		t.Fatal("first hot request missed the cache on a warm-started server")
	}
	if rep.Counts.CacheHits == 0 {
		t.Fatal("no cache hits in a 0.5-hot warm run")
	}
	if rep.Statz.Requests != int64(len(stream)) {
		t.Fatalf("statz requests delta %d, want %d", rep.Statz.Requests, len(stream))
	}
}

// delayFirst is a transport that holds the first request carrying body
// back by delay before sending it, so identical later requests overtake it
// unless nothing else is in flight.
type delayFirst struct {
	body    string
	delay   time.Duration
	delayed atomic.Bool
}

func (d *delayFirst) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(data))
		if string(data) == d.body && d.delayed.CompareAndSwap(false, true) {
			time.Sleep(d.delay)
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestFirstHotMissesCold pins FirstHotCached to the server's warm state,
// not to which client wins a race: on a cold server the stream's first hot
// request misses even when its transport is slow enough for every later
// identical request to be planned and cached first, in both drive modes.
func TestFirstHotMissesCold(t *testing.T) {
	stream, err := Generate(WorkloadConfig{Seed: 1, HotFrac: 1, HotSetSize: 1}, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Clients: 4}, {Mode: OpenLoop, RPS: 400}} {
		t.Run(opts.Mode.String(), func(t *testing.T) {
			baseURL, _, shutdown, err := InProcess(serve.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown()
			client := &http.Client{Transport: &delayFirst{body: stream[0].Body, delay: 100 * time.Millisecond}}
			opts.CrossCheck = true
			rep, err := Run(client, baseURL, stream, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Fatalf("run failed: errors %d, crosscheck %v, samples %v",
					rep.Counts.Errors, rep.CrossCheck, rep.ErrorSamples)
			}
			if rep.FirstHotCached {
				t.Fatal("first hot request hit the cache of a cold server")
			}
		})
	}
}

// TestRunOpenLoop drives the open-loop mode at a rate the in-process
// server easily sustains and checks the same contracts hold.
func TestRunOpenLoop(t *testing.T) {
	stream, err := Generate(WorkloadConfig{Seed: 2, HotFrac: 0.6}, 40)
	if err != nil {
		t.Fatal(err)
	}
	baseURL, _, shutdown, err := InProcess(serve.Config{}, Catalog())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	rep, err := Run(NewClient(8), baseURL, stream, Options{Mode: OpenLoop, RPS: 400, CrossCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("open-loop run failed: errors %d, crosscheck %v, samples %v",
			rep.Counts.Errors, rep.CrossCheck, rep.ErrorSamples)
	}
	if rep.Mode != "open" || rep.TargetRPS != 400 {
		t.Fatalf("report mode %q rps %.0f, want open/400", rep.Mode, rep.TargetRPS)
	}
}

// TestRunRefusesOpenLoopRate holds Run to refusing an open-loop rate whose
// arrival interval is no positive duration, before it sends anything.
func TestRunRefusesOpenLoopRate(t *testing.T) {
	stream, err := Generate(WorkloadConfig{Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rps := range []float64{math.NaN(), math.Inf(1), 2e9} {
		if _, err := Run(NewClient(1), "http://127.0.0.1:1", stream, Options{Mode: OpenLoop, RPS: rps}); err == nil || !strings.Contains(err.Error(), "arrival interval") {
			t.Errorf("RPS %g: err = %v, want an arrival-interval refusal", rps, err)
		}
	}
}

// TestParseMode pins the flag vocabulary.
func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"closed": ClosedLoop, "open": OpenLoop, "OPEN": OpenLoop} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("sideways"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
	if ClosedLoop.String() != "closed" || OpenLoop.String() != "open" {
		t.Error("Mode.String does not round-trip the flag vocabulary")
	}
}

// TestCatalogResolves checks every catalog entry is a valid warm/load
// request: warming the full catalog must never fail at runtime.
func TestCatalogResolves(t *testing.T) {
	cat := Catalog()
	if len(cat) < HotSetSize {
		t.Fatalf("catalog has %d entries, fewer than the hot set size %d", len(cat), HotSetSize)
	}
	s := serve.NewServer(serve.Config{})
	warmed, err := s.Warm(t.Context(), cat)
	if err != nil {
		t.Fatalf("warming the catalog: %v", err)
	}
	if warmed != len(cat) {
		t.Fatalf("warmed %d of %d catalog entries: duplicate cache keys in the catalog", warmed, len(cat))
	}
}
