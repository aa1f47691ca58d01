package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

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
