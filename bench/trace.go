package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"p2"
)

// The traced run measures layers from outside: every span is recorded here,
// around a call into a layer's public function. The root span of an op is
// the op itself; its sibling "replay" span is the benchmark's own serial
// walk of the pipeline for the same shape, whose children are the layer
// spans and whose ranking must equal the engine's.

// span is one timed interval. Spans of one op share Op; Parent is the ID of
// the span that caused it (0 for a root). A layer's self time is its
// span's duration minus its children's.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// N is how many items (matrices, programs, ...) the span covers.
	N int `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

// newTracer reserves room for a run's spans up front, so that recording
// one allocates nothing inside the intervals being measured.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<15)} }

func (t *tracer) us() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartUs: t.us()})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id, n int) time.Duration {
	s := &t.spans[id-1]
	s.EndUs, s.N = t.us(), n
	return time.Duration((s.EndUs - s.StartUs) * float64(time.Microsecond))
}

// write flushes the spans to DIR/trace-WORKLOAD.json.
func (t *tracer) write(dir, workload string, seed int64, ops []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Ops      []string `json:"ops"` // Ops[i] names the shape of op i+1
		Spans    []span   `json:"spans"`
	}{workload, seed, ops, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

const (
	// traceRounds is how often the traced run repeats each op, traced and
	// untraced alternately; medians of the two give trace.overhead_share.
	traceRounds = 3
	// freshTraceRounds and hotTraceRounds are the same for the serve
	// workloads: transport is a small difference of two request times, so
	// it needs more samples, and hot requests are a thousand times shorter.
	freshTraceRounds = 8
	hotTraceRounds   = 64
)

// procWatch follows the process over the traced ops.
type procWatch struct {
	start     [4]metrics.Sample
	peakInuse uint64
}

var procSamples = [4]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/memory/classes/heap/objects:bytes",
}

func readProc() (s [4]metrics.Sample) {
	for i, n := range procSamples {
		s[i].Name = n
	}
	metrics.Read(s[:])
	return s
}

func startProcWatch() *procWatch { return &procWatch{start: readProc()} }

// sample notes the live heap; call it between ops.
func (p *procWatch) sample() {
	if v := readProc()[3].Value.Uint64(); v > p.peakInuse {
		p.peakInuse = v
	}
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0 // not Linux: the metric reads 0 rather than failing the run
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1e3
		}
	}
	return 0
}

func (p *procWatch) metrics(ops int, out map[string]float64) {
	end := readProc()
	gc := end[0].Value.Float64() - p.start[0].Value.Float64()
	cpu := end[1].Value.Float64() - p.start[1].Value.Float64()
	out["proc.peak_rss_mb"] = peakRSSMB()
	out["proc.heap_inuse_peak_mb"] = float64(p.peakInuse) / 1e6
	if cpu > 0 {
		out["proc.gc_cpu_share"] = gc / cpu
	}
	out["proc.mallocs_k_per_op"] = float64(end[2].Value.Uint64()-p.start[2].Value.Uint64()) / 1e3 / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// newLayerMetrics returns every declared per-layer metric at 0: a layer a
// workload does not exercise reports 0 calls.
func newLayerMetrics() map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}
	return out
}

// addStats folds one op's planner counters into the plan.* and netsim.*
// count metrics.
func addStats(out map[string]float64, st planStats) {
	out["plan.placements"] += float64(st.Placements)
	out["plan.synth_runs"] += float64(st.SynthRuns)
	out["plan.memo_hits"] += float64(st.MemoHits)
	out["plan.candidates"] += float64(st.Candidates)
	out["plan.pruned_placements"] += float64(st.PrunedPlacements)
	out["plan.pruned_programs"] += float64(st.PrunedPrograms)
	out["plan.bound_tightenings"] += float64(st.BoundTightenings)
	out["netsim.measured_candidates"] += float64(st.MeasuredCandidates)
	out["netsim.rank_inversions"] += float64(st.RankInversions)
}

// traced is the library workloads' traced run: per shape, the op traced
// and untraced, the stage replay, one Parallelism-1 op for the planner's
// counters (they repeat exactly only there) and one direct engine call.
func (e *libEnv) traced(rep *report, cfg config) error {
	t := newTracer()
	rounds := traceRounds
	if cfg.smoke {
		rounds = 1
	}
	var (
		sums              layerSums
		out               = newLayerMetrics()
		names             []string
		plainMs, tracedMs float64 // sums over shapes of the median op time, untraced and traced
		// Sums over the single-reduction shapes, which the replay and the
		// direct engine call cover: the op at default parallelism, at
		// Parallelism 1, its replay, and the op minus the engine call.
		parMs, serialMs, replayedMs, wrapMs float64
		singles, strategies                 int
		// Over the shapes replayed in full: candidates the engine scored,
		// and the cross-product the replay walked.
		scored, crossProduct int
	)
	proc := startProcWatch()
	ops := 0
	for si := range e.shapes {
		s, op := &e.shapes[si], si+1
		names = append(names, s.name())
		var (
			plain, traced []float64
			last          libResult
		)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			if _, err := e.run(si); err != nil {
				return err
			}
			plain = append(plain, ms(time.Since(t0)))
			id := t.begin("op", 0, op)
			res, err := e.run(si)
			traced = append(traced, ms(t.end(id, 1)))
			if err != nil {
				return err
			}
			last = res
			ops += 2
			proc.sample()
		}
		opMs := median(traced)
		plainMs += median(plain)
		tracedMs += opMs
		got := last.ranking()
		strategies += len(got.entries)

		if s.joint != nil {
			continue // the counters, the replay and the direct engine call cover single reductions only
		}
		// Planner counters, from the one setting where they repeat.
		req := e.reqs[si]
		req.Parallelism = 1
		t0 := time.Now()
		res, err := p2.Plan(e.sys[si], req)
		if err != nil {
			return err
		}
		serialMs += ms(time.Since(t0))
		parMs += opMs
		addStats(out, res.Stats)

		var engine []float64
		for r := 0; r < rounds; r++ {
			t0 = time.Now()
			if _, err := engineRun(context.Background(), e.sys[si], e.reqs[si]); err != nil {
				return err
			}
			engine = append(engine, ms(time.Since(t0)))
		}
		wrapMs += opMs - median(engine)

		rp, err := t.replay(op, e.sys[si], e.reqs[si], got.entries, &sums)
		if err != nil {
			return fmt.Errorf("replaying %q: %w", s.name(), err)
		}
		replayedMs += ms(rp.dur)
		if !rp.partial {
			scored += res.Stats.Candidates
			crossProduct += rp.candidates
		}
		singles++
		rep.attempted++
		if d := rp.check(got.entries); d != "" {
			rep.fail("%s: engine ranking differs from the stage replay: %s", s.name(), d)
		}
	}
	proc.metrics(ops, out)
	sums.fill(out)
	out["plan.scored_share"] = ratio(float64(scored), float64(crossProduct))
	out["plan.op_over_replay"] = ratio(parMs, replayedMs)
	out["plan.par_speedup"] = ratio(serialMs, parMs)
	out["p2.wrap_ms"] = ratio(wrapMs, float64(singles))
	out["p2.strategies_per_op"] = ratio(float64(strategies), float64(len(e.shapes)))
	out["trace.overhead_share"] = ratio(tracedMs, plainMs) - 1
	rep.metrics = out
	return t.write(cfg.traceDir, e.w.name, cfg.seed, names)
}

// traced is the serve workloads' traced run. One client sends requests over
// loopback, traced and untraced alternately; the same requests then go to
// a second daemon through its handler without a socket, and to a warm
// library planner, which splits a request into transport, handler and
// planning; the stage replay and the planner's counters follow per shape as
// in the library workloads.
func (e *serveEnv) traced(rep *report, cfg config) error {
	t := newTracer()
	var (
		sums  layerSums
		out   = newLayerMetrics()
		names []string
	)
	rounds := freshTraceRounds
	switch {
	case cfg.smoke:
		rounds = 1
	case e.w.hot:
		rounds = hotTraceRounds
	}
	n := len(e.shapes)
	if 2*rounds*n > len(e.bodies)/2 {
		return fmt.Errorf("stream of %d requests is too short for %d traced rounds", len(e.bodies), rounds)
	}
	// The stream's first half feeds the loopback requests, its second half
	// the handler-only daemon, so no fresh payload is used twice anywhere.
	next, handlerNext := 0, len(e.bodies)/2
	take := func(at *int, si int) string {
		for e.shapeOf[*at] != si {
			*at++
		}
		*at++
		return e.bodies[*at-1]
	}

	t0 := time.Now()
	scratch := &serveEnv{w: e.w, shapes: e.shapes}
	if err := scratch.buildStream(cfg); err != nil {
		return err
	}
	out["load.generate_ms"] = ms(time.Since(t0))

	ctx := context.Background()
	handler, err := warmHandler(ctx, e.warmSet(cfg))
	if err != nil {
		return err
	}
	planner := p2.NewPlanner(0)
	for si := range e.shapes {
		if _, err := planner.PlanCtx(ctx, e.sys[si], e.reqs[si]); err != nil {
			return err
		}
	}

	before, err := fetchStatz(e.client, e.url)
	if err != nil {
		return err
	}
	proc := startProcWatch()
	var (
		plainUs, tracedUs, decodeUs  float64 // sums over shapes of per-shape medians
		handlerUs, planUs, respBytes float64
		parMs, serialMs, replayedMs  float64
		sent, handled, planned       int
		scored, crossProduct         int
	)
	for si := range e.shapes {
		s, op := &e.shapes[si], si+1
		names = append(names, s.name())
		var plain, traced, decode, handle, plan []float64
		for r := 0; r < rounds; r++ {
			_, d, err := e.post(take(&next, si))
			if err != nil {
				return err
			}
			plain = append(plain, us(d))

			body := take(&next, si)
			id := t.begin("request", 0, op)
			rt := t.begin("client.roundtrip", id, op)
			resp, err := e.client.Post(e.url+"/plan", "application/json", strings.NewReader(body))
			t.end(rt, 1)
			if err != nil {
				return err
			}
			dec := t.begin("client.decode", id, op)
			var pr planResponse
			err = json.NewDecoder(resp.Body).Decode(&pr)
			resp.Body.Close()
			decode = append(decode, us(t.end(dec, len(pr.Strategies))))
			traced = append(traced, us(t.end(id, 1)))
			if err != nil {
				return fmt.Errorf("decoding response: %w", err)
			}
			if d := e.checkResponse(si, &pr); d != "" {
				rep.fail("%s: %s", s.name(), d)
			}
			sent += 2

			// The same kind of request without the socket.
			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest("POST", "/plan", strings.NewReader(take(&handlerNext, si)))
			id = t.begin("serve.handler", 0, op)
			handler.ServeHTTP(rec, hreq)
			handle = append(handle, us(t.end(id, 1)))
			if rec.Code != 200 {
				return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
			}
			respBytes += float64(rec.Body.Len())
			handled++
			proc.sample()
		}
		plainUs += median(plain)
		tracedUs += median(traced)
		decodeUs += median(decode)
		handlerUs += median(handle)
		if e.w.hot {
			continue // a cache read plans nothing: no planner share, counters or replay to attribute
		}

		// What planning costs the daemon for this shape: the same request
		// on a warm library planner, and its counters at Parallelism 1.
		req := e.reqs[si]
		for r := 0; r < rounds; r++ {
			req.Bytes = freshBytes(len(e.bodies) + planned)
			planned++
			t0 := time.Now()
			if _, err := planner.PlanCtx(ctx, e.sys[si], req); err != nil {
				return err
			}
			plan = append(plan, us(time.Since(t0)))
		}
		planUs += median(plan)
		parMs += median(plan) / 1e3
		req.Bytes, req.Parallelism = freshBytes(si), 1
		t0 := time.Now()
		res, err := planner.PlanCtx(ctx, e.sys[si], req)
		if err != nil {
			return err
		}
		serialMs += ms(time.Since(t0))
		addStats(out, res.Stats)

		req.Parallelism = 0
		engine := rankingOfResponse(e.warm[si]).entries
		rp, err := t.replay(op, e.sys[si], req, engine, &sums)
		if err != nil {
			return fmt.Errorf("replaying %q: %w", s.name(), err)
		}
		replayedMs += ms(rp.dur)
		scored += res.Stats.Candidates
		crossProduct += rp.candidates
		rep.attempted++
		if d := rp.check(engine); d != "" {
			rep.fail("%s: daemon ranking differs from the stage replay: %s", s.name(), d)
		}
	}
	rep.attempted += sent
	proc.metrics(sent, out)
	sums.fill(out)
	after, err := fetchStatz(e.client, e.url)
	if err != nil {
		return err
	}
	shapes := float64(n)
	out["plan.scored_share"] = ratio(float64(scored), float64(crossProduct))
	out["plan.op_over_replay"] = ratio(parMs, replayedMs)
	out["plan.par_speedup"] = ratio(serialMs, parMs)
	out["serve.handler_us"] = handlerUs / shapes
	out["serve.transport_us"] = (plainUs - handlerUs) / shapes
	out["serve.plan_share"] = ratio(planUs, handlerUs)
	out["serve.resp_bytes"] = ratio(respBytes, float64(handled))
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	out["serve.cache_hit_share"] = ratio(float64(hits), float64(hits+misses))
	out["serve.cache_entries"] = float64(after.CacheEntries)
	out["serve.statz.requests"] = float64(after.Requests - before.Requests)
	out["serve.statz.cache_hits"] = float64(hits)
	out["serve.statz.cache_misses"] = float64(misses)
	out["serve.statz.coalesced"] = float64(after.Coalesced - before.Coalesced)
	out["serve.statz.shed"] = float64(after.Shed - before.Shed)
	out["serve.statz.partials"] = float64(after.Partials - before.Partials)
	out["serve.statz.panics"] = float64(after.Panics - before.Panics)
	out["serve.statz_p50_ms"] = after.Latency.P50
	out["load.client_us_per_request"] = decodeUs / shapes
	out["p2.strategies_per_op"] = ratio(float64(strategies(e.warm)), shapes)
	out["trace.overhead_share"] = ratio(tracedUs, plainUs) - 1
	if got := after.Requests - before.Requests; got != int64(sent) {
		rep.fail("/statz requests grew by %d over the traced phase, want %d", got, sent)
	}
	rep.metrics = out
	return t.write(cfg.traceDir, e.w.name, cfg.seed, names)
}

func strategies(resps []*planResponse) int {
	n := 0
	for _, r := range resps {
		n += len(r.Strategies)
	}
	return n
}
