package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"p2"
	"p2/internal/cost"
)

// bases are the requests the equivalence table and the fuzz seeds start
// from: the shapes of the load harness's catalog (internal/load, which
// imports this package), every system, algorithm and measured mode.
var bases = []PlanRequest{
	{System: "fig2a", Axes: []int{16}, Reduce: []int{0}, TopK: 5},
	{System: "fig2a", Axes: []int{4, 4}, Reduce: []int{1}, TopK: 5},
	{System: "fig2a", Axes: []int{2, 8}, Reduce: []int{0}, Algo: "auto", TopK: 5},
	{System: "fig2a", Axes: []int{16}, Reduce: []int{0}, TopK: 3, Measure: "rerank"},
	{System: "a100", Nodes: 2, Axes: []int{4, 8}, Reduce: []int{1}, Algo: "Tree", TopK: 5},
	{System: "a100", Axes: []int{4, 16}, Reduce: []int{0}},
	{System: "v100", Nodes: 2, Axes: []int{2, 8}, Reduce: []int{0}, Algo: "HalvingDoubling", TopK: 5},
	{System: "v100", Axes: []int{8, 4}, Reduce: []int{0, 1}, TopK: 5},
	{System: "superpod:2x2", Axes: []int{32}, Reduce: []int{0}, Algo: "auto", TopK: 5},
	{System: "a100", Nodes: 2, Axes: []int{4, 8}, Reduce: []int{0}, TopK: 5, Bytes: 1e8},
}

// spelling rewrites a wire request into another one that plans the same
// strategies, or reports that it does not apply to the request.
type spelling struct {
	name    string
	rewrite func(pr PlanRequest, sys *p2.System) (PlanRequest, bool)
}

// spellings are the equivalent spellings of one request the wire accepts:
// each differs only in a field's spelling or in spelling out its default.
var spellings = []spelling{
	{"system upper-case", func(pr PlanRequest, _ *p2.System) (PlanRequest, bool) {
		pr.System = strings.ToUpper(pr.System)
		return pr, true
	}},
	{"default nodes spelled out", func(pr PlanRequest, _ *p2.System) (PlanRequest, bool) {
		if (pr.System != "a100" && pr.System != "v100") || pr.Nodes != 0 {
			return pr, false
		}
		pr.Nodes = 4
		return pr, true
	}},
	{"reduce [0] left out", func(pr PlanRequest, _ *p2.System) (PlanRequest, bool) {
		if !reflect.DeepEqual(pr.Reduce, []int{0}) {
			return pr, false
		}
		pr.Reduce = nil
		return pr, true
	}},
	{"algo case", func(pr PlanRequest, _ *p2.System) (PlanRequest, bool) {
		if pr.Algo == "" {
			pr.Algo = "RING"
		} else {
			pr.Algo = strings.ToLower(pr.Algo)
		}
		return pr, true
	}},
	{"default payload spelled out", func(pr PlanRequest, sys *p2.System) (PlanRequest, bool) {
		if pr.Bytes != 0 {
			return pr, false
		}
		pr.Bytes = cost.DefaultPayload(sys)
		return pr, true
	}},
	{"negative topk", func(pr PlanRequest, _ *p2.System) (PlanRequest, bool) {
		if pr.TopK != 0 {
			return pr, false
		}
		pr.TopK = -3
		return pr, true
	}},
	{"default max_program_size spelled out", func(pr PlanRequest, _ *p2.System) (PlanRequest, bool) {
		if pr.MaxProgramSize != 0 {
			return pr, false
		}
		pr.MaxProgramSize = 5
		return pr, true
	}},
	{"measure off spelled out", func(pr PlanRequest, _ *p2.System) (PlanRequest, bool) {
		if pr.Measure != "" {
			pr.Measure = strings.ToUpper(pr.Measure)
		} else {
			pr.Measure = "off"
		}
		return pr, true
	}},
	{"timeout_ms", func(pr PlanRequest, _ *p2.System) (PlanRequest, bool) {
		pr.TimeoutMs = 5000
		return pr, true
	}},
	{"fault by entity id", func(pr PlanRequest, sys *p2.System) (PlanRequest, bool) {
		if pr.Faults != "" {
			return pr, false
		}
		// The uplink of the last device, named by its coordinates on
		// one side and by its entity id on the other.
		l := len(sys.Levels) - 1
		coords, e := make([]string, l+1), sys.NumDevices()-1
		for i, rest := l, e; i >= 0; i-- {
			coords[i] = fmt.Sprint(rest % sys.Levels[i].Count)
			rest /= sys.Levels[i].Count
		}
		pr.Faults = fmt.Sprintf("%d:%s:bw/4", l, strings.Join(coords, "/"))
		return pr, true
	}},
}

// faultByID is the entity-id form of the "fault by entity id" spelling's
// base request, which that row pairs against the coordinate form.
func faultByID(sys *p2.System) string {
	return fmt.Sprintf("%d:%d:bw/4", len(sys.Levels)-1, sys.NumDevices()-1)
}

// equivalentPairs pairs every base request with each spelling that
// applies to it: (base, rewritten).
func equivalentPairs(t testing.TB) (pairs [][2]PlanRequest, names []string) {
	t.Helper()
	for _, pr := range bases {
		sys, _, _, err := resolve(&pr)
		if err != nil {
			t.Fatalf("base request %+v: %v", pr, err)
		}
		for _, sp := range spellings {
			alt, ok := sp.rewrite(pr, sys)
			if !ok {
				continue
			}
			base := pr
			if sp.name == "fault by entity id" {
				base.Faults = faultByID(sys)
			}
			pairs = append(pairs, [2]PlanRequest{base, alt})
			names = append(names, sp.name)
		}
	}
	return pairs, names
}

// TestEquivalentSpellingsShareKey: two spellings of one request resolve to
// one cache key — among them the default payload left out or spelled out,
// and one fault named by coordinates or by entity id — so the second is a
// cache hit. It logs how many equivalent pairs key apart (EXPERIMENTS.md).
func TestEquivalentSpellingsShareKey(t *testing.T) {
	pairs, names := equivalentPairs(t)
	apart := 0
	for i, p := range pairs {
		_, _, ka, err := resolve(&p[0])
		if err != nil {
			t.Fatalf("%s: %+v: %v", names[i], p[0], err)
		}
		_, _, kb, err := resolve(&p[1])
		if err != nil {
			t.Fatalf("%s: %+v: %v", names[i], p[1], err)
		}
		if ka != kb {
			apart++
			t.Errorf("%s: %+v and %+v key apart", names[i], p[0], p[1])
		}
	}
	t.Logf("%d of %d equivalent pairs key apart", apart, len(pairs))
}

// planJSON is the wire response of p2.Plan on a resolved request at
// Parallelism 1, where the pruning counters are deterministic too.
func planJSON(t *testing.T, sys *p2.System, req p2.Request) []byte {
	t.Helper()
	req.Parallelism = 1
	res, err := p2.Plan(sys, req)
	if err != nil {
		return []byte("error: " + err.Error())
	}
	data, err := json.Marshal(buildResponse(res))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wireBody is what a served 200 /plan body for resp must be: writeJSON of
// resp as a response with the given cached flag and the elapsed_ms the
// served body reports.
func wireBody(t testing.TB, resp PlanResponse, cached bool, served []byte) []byte {
	t.Helper()
	var head PlanResponse
	if err := json.Unmarshal(served, &head); err != nil {
		t.Fatalf("decoding a served body: %v\n%s", err, served)
	}
	resp.Cached, resp.ElapsedMs = cached, head.ElapsedMs
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &resp)
	return rec.Body.Bytes()
}

// small bounds the requests the fuzz target plans for real.
func small(sys *p2.System, req p2.Request) bool {
	measuresAll := req.Measure == p2.MeasureRankAll || (req.Measure == p2.MeasureRerank && req.TopK == 0)
	return sys.NumDevices() <= 16 && len(req.Axes) <= 3 && req.MaxProgramSize <= 5 && !measuresAll
}

// cliRefuses reports whether the CLI's rules refuse a request's system,
// nodes, bytes, algo or measure: the CLI resolves those flags with exactly
// p2.ParseSystem, p2.CheckPayload, p2.ParseAlgorithms and
// p2.ParseMeasureMode.
func cliRefuses(pr PlanRequest) bool {
	_, sysErr := p2.ParseSystem(pr.System, pr.Nodes)
	var algoErr, measureErr error
	if pr.Algo != "" {
		_, _, algoErr = p2.ParseAlgorithms(pr.Algo)
	}
	if pr.Measure != "" {
		_, measureErr = p2.ParseMeasureMode(pr.Measure)
	}
	return sysErr != nil || p2.CheckPayload(pr.Bytes) != nil || algoErr != nil || measureErr != nil
}

// fuzzSystems are the system names the typed requests draw from.
var fuzzSystems = []string{"fig2a", "a100", "V100", "superpod:1x2", "superpod", "tpu", ""}

// FuzzServeResolve drives resolve with generated requests: raw JSON bodies
// through the handler (truncated, duplicated keys, wrong types, huge
// numbers), and typed requests through Warm, which is how NaN and ±Inf
// payloads reach resolve (JSON cannot spell them). Properties:
//   - resolve either refuses — a 400 before the cache and the planner — or
//     hands the planner a request p2 takes as resolved: Request.Resolve
//     accepts it and changes nothing, key included;
//   - the wire refuses a request's system, nodes, bytes, algo and measure
//     exactly when the CLI's rules do;
//   - an equivalent spelling resolves to the same key, and two requests
//     with equal keys plan byte-identical responses at Parallelism 1;
//     served in turn by one daemon, the second is a cache hit, and both
//     bodies are writeJSON of that response.
func FuzzServeResolve(f *testing.F) {
	for i, pr := range bases {
		body, err := json.Marshal(pr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body), uint8(i), pr.Nodes, pr.Bytes, pr.Algo, pr.Measure, uint8(i))
	}
	f.Add(`{"system": "fig2a", "axes": [16], "axes": [4, 4]}`, uint8(0), 0, math.NaN(), "", "", uint8(1))
	f.Add(`{"system": "fig2a", "axes": [16], "bytes": 1e400}`, uint8(0), 0, math.Inf(1), "auto", "rerank", uint8(4))
	f.Add(`{"system": "fig2a", "axes": "16"}`, uint8(1), -1, math.Inf(-1), "warp", "always", uint8(9))
	f.Add(`{"system": "a100", "nodes": 1, "axes": [16], "topk": -2, "max_program_size": 3}`, uint8(2), 2, -1.0, "Tree", "Off", uint8(7))
	f.Add(`{"system": "fig2a", "axes": [16], "faults": "gpu:0/1/1/3:bw/2;3:15:lat*2"}`, uint8(3), 0, 1e9, "hd", "rank-all", uint8(3))
	f.Add(`{"system": "fig2a", "axes": [1`, uint8(5), 0, 0.0, "", "", uint8(0))
	f.Fuzz(func(t *testing.T, body string, system uint8, nodes int, payload float64, algo, measure string, pick uint8) {
		fuzzWire(t, body)
		fuzzTyped(t, PlanRequest{System: fuzzSystems[int(system)%len(fuzzSystems)], Nodes: nodes,
			Bytes: payload, Algo: algo, Measure: measure}, pick)
	})
}

// fuzzWire serves one raw body against a stub planner.
func fuzzWire(t *testing.T, body string) {
	s := NewServer(Config{})
	var planned []p2.Request
	s.planFn = func(_ context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		planned = append(planned, req)
		return &p2.PlanResult{Request: req, System: sys}, nil
	}
	rec := httptest.NewRecorder()
	s.handlePlan(rec, httptest.NewRequest(http.MethodPost, "/plan", strings.NewReader(body)))

	var pr PlanRequest
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&pr); err != nil {
		if rec.Code != http.StatusBadRequest || len(planned) != 0 {
			t.Fatalf("undecodable body %q: status %d, %d planner calls", body, rec.Code, len(planned))
		}
		return
	}
	sys, req, key, err := resolve(&pr)
	if err != nil {
		if rec.Code != http.StatusBadRequest || len(planned) != 0 || s.hits.Load()+s.misses.Load() != 0 {
			t.Fatalf("refused body %q (%v): status %d, %d planner calls, %d cache lookups",
				body, err, rec.Code, len(planned), s.hits.Load()+s.misses.Load())
		}
		return
	}
	if rec.Code != http.StatusOK || len(planned) != 1 || !reflect.DeepEqual(planned[0], req) {
		t.Fatalf("accepted body %q: status %d, planner saw %+v, want one call with %+v", body, rec.Code, planned, req)
	}
	again, err := req.Resolve(sys)
	if err != nil || !reflect.DeepEqual(again, req) || cacheKey(sys, again) != key {
		t.Fatalf("body %q: resolved request %+v does not resolve to itself (%+v, %v)", body, req, again, err)
	}
}

// fuzzTyped resolves one typed request through Warm (against a stub
// planner) and checks its refusals against the CLI's; on a system small
// enough to plan it compares one equivalent spelling's key and plan.
func fuzzTyped(t *testing.T, pr PlanRequest, pick uint8) {
	pr.Reduce, pr.Axes = []int{0}, []int{16}
	sys, err := p2.ParseSystem(pr.System, pr.Nodes)
	if err == nil {
		pr.Axes = []int{sys.NumDevices()}
	}
	s := NewServer(Config{})
	calls := 0
	s.planFn = func(_ context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		calls++
		return &p2.PlanResult{Request: req, System: sys}, nil
	}
	_, warmErr := s.Warm(context.Background(), []PlanRequest{pr})
	refused, wantCalls := warmErr != nil, 1
	if refused {
		wantCalls = 0
	}
	if refused != cliRefuses(pr) || calls != wantCalls {
		t.Fatalf("%+v: wire refused=%v (%v) after %d planner calls, CLI refuses=%v", pr, refused, warmErr, calls, cliRefuses(pr))
	}
	if refused || sys.NumDevices() > 1<<12 {
		return
	}
	sp := spellings[int(pick)%len(spellings)]
	alt, ok := sp.rewrite(pr, sys)
	if !ok {
		return
	}
	if sp.name == "fault by entity id" {
		pr.Faults = faultByID(sys)
	}
	sys, req, key, err := resolve(&pr)
	if err != nil {
		t.Fatalf("%+v: Warm accepted what resolve refuses: %v", pr, err)
	}
	altSys, altReq, altKey, err := resolve(&alt)
	if err != nil {
		t.Fatalf("%s of %+v is refused: %v", sp.name, pr, err)
	}
	if altKey != key {
		t.Fatalf("%s of %+v keys apart", sp.name, pr)
	}
	if !small(sys, req) {
		return
	}
	a, b := planJSON(t, sys, req), planJSON(t, altSys, altReq)
	if !bytes.Equal(a, b) {
		t.Fatalf("%s of %+v: equal keys, different responses:\n%s\n%s", sp.name, pr, a, b)
	}
	var want PlanResponse
	if json.Unmarshal(a, &want) != nil {
		return // the planner refuses it
	}
	s = NewServer(Config{})
	s.planFn = func(_ context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		req.Parallelism = 1
		return p2.Plan(sys, req)
	}
	for i, p := range []PlanRequest{pr, alt} {
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.handlePlan(rec, httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(body)))
		if got := rec.Body.Bytes(); !bytes.Equal(got, wireBody(t, want, i == 1, got)) {
			t.Fatalf("%s of %+v: served body %d is not writeJSON of the planned response:\n%s", sp.name, pr, i, got)
		}
	}
}
