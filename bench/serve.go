package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2"
)

// Serve workloads: POST /plan from nproc closed-loop clients to the
// in-process daemon.

type serveEnv struct {
	w       *workload
	shapes  []shape
	sys     []*p2.System
	reqs    []p2.Request
	url     string
	stop    func()
	client  *http.Client
	clients int
	// warmBodies is the warm-up round, one request a shape in catalog
	// order; bodies is the timed stream and shapeOf each body's shape.
	warmBodies []string
	bodies     []string
	shapeOf    []int
	warm       []*planResponse
	// sampleAt marks the stream positions whose responses are kept, in
	// sampled, for the daemon-vs-library comparison.
	sampleAt map[int]bool
	sampled  map[int]*planResponse
	before   *statz
	sent     int
}

func setupServe(w *workload, cfg config) (*serveEnv, error) {
	e := &serveEnv{w: w, shapes: w.active(cfg.smoke), clients: runtime.GOMAXPROCS(0)}
	var err error
	if e.sys, e.reqs, err = resolveAll(e.shapes); err != nil {
		return nil, err
	}
	if err := e.buildStream(cfg); err != nil {
		return nil, err
	}
	if e.url, e.stop, err = bootDaemon(e.warmSet(cfg)); err != nil {
		return nil, fmt.Errorf("booting daemon: %w", err)
	}
	e.client = newClient(e.clients)
	e.warm = make([]*planResponse, len(e.shapes))
	for si, body := range e.warmBodies {
		resp, _, err := e.post(body)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %q: %w", e.shapes[si].name(), err)
		}
		e.warm[si] = resp
	}
	return e, nil
}

// warmSet is what the daemon is warm-started with: the whole catalog, as
// `p2 serve -warm` does, or in a smoke run only the shapes it sends.
func (e *serveEnv) warmSet(cfg config) []planRequest {
	if !cfg.smoke {
		return catalog()
	}
	var warm []planRequest
	for _, s := range e.shapes {
		warm = append(warm, s.planRequest)
	}
	return warm
}

// buildStream generates the warm-up round and the timed stream from the
// seed.
func (e *serveEnv) buildStream(cfg config) error {
	n := len(e.shapes)
	body := func(si, fresh int) (string, error) {
		pr := e.shapes[si].planRequest
		if fresh >= 0 {
			pr.Bytes = freshBytes(fresh)
		}
		b, err := json.Marshal(pr)
		return string(b), err
	}
	for si := range e.shapes {
		fresh := -1
		if !e.w.hot {
			fresh = si
		}
		b, err := body(si, fresh)
		if err != nil {
			return err
		}
		e.warmBodies = append(e.warmBodies, b)
	}
	if e.w.hot {
		// The load harness's own hot stream; a body names its shape.
		verbatim := map[string]int{}
		for si := range e.shapes {
			b, err := body(si, -1)
			if err != nil {
				return err
			}
			verbatim[b] = si
		}
		var err error
		if e.bodies, err = hotStream(cfg.seed, hotStreamLen, n); err != nil {
			return err
		}
		e.shapeOf = make([]int, len(e.bodies))
		for i, b := range e.bodies {
			si, ok := verbatim[b]
			if !ok {
				return fmt.Errorf("hot stream body %q is not a catalog entry", b)
			}
			e.shapeOf[i] = si
		}
		return nil
	}
	// Fresh: balanced rounds of every shape, order shuffled by the seed,
	// each request with a payload no other request of the run has.
	ops := newOpList(cfg.seed, n)
	for r := 1; r <= freshRounds; r++ {
		for _, si := range ops.round() {
			b, err := body(si, r*n+si)
			if err != nil {
				return err
			}
			e.bodies = append(e.bodies, b)
			e.shapeOf = append(e.shapeOf, si)
		}
	}
	return nil
}

func (e *serveEnv) shapeList() []shape { return e.shapes }

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.stop()
}

// post sends one request and decodes the whole response, as a launcher
// would; the latency is socket to decoded response.
func (e *serveEnv) post(body string) (*planResponse, time.Duration, error) {
	t0 := time.Now()
	resp, err := e.client.Post(e.url+"/plan", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256)) // best-effort detail for the failure line
		return nil, time.Since(t0), fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var pr planResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, time.Since(t0), fmt.Errorf("decoding response: %w", err)
	}
	return &pr, time.Since(t0), nil
}

// checkResponse is the per-request check: a complete answer from the
// expected side of the cache with as many strategies as the warm-up's. A
// hot request repeats the warm-up request, so it must also rank the same
// strategy first; a fresh one carries another payload and may not, and is
// compared with the library through the sample instead.
func (e *serveEnv) checkResponse(si int, resp *planResponse) string {
	switch {
	case resp.Partial:
		return "partial response"
	case resp.Cached != e.w.hot:
		return fmt.Sprintf("cached=%v, want %v", resp.Cached, e.w.hot)
	case len(resp.Strategies) != len(e.warm[si].Strategies):
		return fmt.Sprintf("%d strategies, want %d", len(resp.Strategies), len(e.warm[si].Strategies))
	}
	if got, want := resp.Strategies[0], e.warm[si].Strategies[0]; e.w.hot && got != want {
		return fmt.Sprintf("rank 1 is %+v, warm-up had %+v", got, want)
	}
	return ""
}

// libraryAnswer plans the request behind a wire body with the library.
func (e *serveEnv) libraryAnswer(si int, body string) (ranking, error) {
	var pr planRequest
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		return ranking{}, err
	}
	req := e.reqs[si]
	req.Bytes = pr.Bytes
	res, err := p2.Plan(e.sys[si], req)
	if err != nil {
		return ranking{}, err
	}
	return rankingOfPlan(res), nil
}

func (e *serveEnv) checkWarmup(rep *report) (deterministic, error) {
	var preds, speedups []float64
	for si, resp := range e.warm {
		name := e.shapes[si].name()
		// The warm-up round is compared with the library in full, and its
		// rank-1 program run on concrete data.
		lib, err := e.libraryAnswer(si, e.warmBodies[si])
		if err != nil {
			return deterministic{}, fmt.Errorf("%s: library plan: %w", name, err)
		}
		if d := diffEntries(rankingOfResponse(resp).entries, lib.entries); d != "" {
			rep.fail("%s: daemon differs from library: %s", name, d)
		}
		if err := verifyLowered(lib.best.Lowered(), lib.best.Matrix, e.reqs[si].ReduceAxes); err != nil {
			rep.fail("%s: rank-1 program fails on concrete data: %v", name, err)
		}
		// The deterministic metrics come from the response itself: the
		// placement is parsed back from the wire.
		best := resp.Strategies[0]
		m, err := p2.ParseMatrix(e.sys[si], e.reqs[si].Axes, best.Matrix)
		if err != nil {
			return deterministic{}, fmt.Errorf("%s: parsing rank-1 matrix: %w", name, err)
		}
		req := e.reqs[si]
		if !e.w.hot {
			req.Bytes = freshBytes(si)
		}
		base, err := baselinePred(e.sys[si], req, m)
		if err != nil {
			return deterministic{}, fmt.Errorf("%s: AllReduce baseline: %w", name, err)
		}
		preds = append(preds, best.PredictedSec*1e3)
		speedups = append(speedups, base/best.PredictedSec)
	}
	return deterministic{bestPredMs: geomean(preds), speedup: geomean(speedups)}, nil
}

func (e *serveEnv) timed(rep *report, cfg config, cal *calibrator) ([]sample, []float64, uint64) {
	// The sample for the daemon-vs-library comparison is drawn from the
	// positions every run reaches.
	reach := min(cfg.minOps(e.w), len(e.bodies))
	e.sampleAt, e.sampled = map[int]bool{}, map[int]*planResponse{}
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, i := range rng.Perm(reach)[:min(cfg.sampled(), reach)] {
		e.sampleAt[i] = true
	}
	var err error
	if e.before, err = fetchStatz(e.client, e.url); err != nil {
		rep.fail("/statz before the timed phase: %v", err)
		e.before = &statz{}
	}

	var (
		next    atomic.Int64
		mu      sync.Mutex // guards rep, e.sampled and samples; e.sampleAt is read-only here
		samples []sample
		slices  []float64
		wall    time.Duration
		alloc   uint64
	)
	// The phase runs in slices, the clients joining between two slices so
	// that the reference kernel runs alone.
	exhausted := func() bool { return !e.w.hot && int(next.Load()) >= len(e.bodies) }
	for (wall.Seconds() < cfg.seconds || len(samples) < reach) && !exhausted() {
		a0 := heapAllocBytes()
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < e.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local []sample
				defer func() {
					mu.Lock()
					samples = append(samples, local...)
					mu.Unlock()
				}()
				for time.Since(start) < sliceLen {
					i := int(next.Add(1)) - 1
					if !e.w.hot && i >= len(e.bodies) {
						return // every fresh payload is used once
					}
					pos := i % len(e.bodies)
					si := e.shapeOf[pos]
					resp, d, err := e.post(e.bodies[pos])
					if cfg.inject == "slow" {
						time.Sleep(d / 2)
						d += d / 2
					}
					s := sample{shape: si, slice: len(slices), ms: ms(d), ok: true}
					var diff string
					if err != nil {
						diff = err.Error()
					} else {
						diff = e.checkResponse(si, resp)
					}
					if diff != "" || e.sampleAt[i] {
						mu.Lock()
						if diff != "" {
							rep.fail("%s: %s", e.shapes[si].name(), diff)
							s.ok = false
						} else {
							e.sampled[i] = resp
						}
						mu.Unlock()
					}
					local = append(local, s)
				}
			}()
		}
		wg.Wait()
		d := time.Since(start)
		wall += d
		slices = append(slices, d.Seconds())
		alloc += heapAllocBytes() - a0
		cal.sample()
	}
	e.sent = len(samples)
	return samples, slices, alloc
}

func (e *serveEnv) checkAfter(rep *report) {
	// The daemon's own counters must account for exactly this traffic,
	// with nothing shed, cut short or crashed.
	after, err := fetchStatz(e.client, e.url)
	if err != nil {
		rep.fail("/statz after the timed phase: %v", err)
		return
	}
	hits, misses := int64(0), int64(e.sent)
	if e.w.hot {
		hits, misses = misses, hits
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"requests", after.Requests - e.before.Requests, int64(e.sent)},
		{"cache_hits", after.CacheHits - e.before.CacheHits, hits},
		{"cache_misses", after.CacheMisses - e.before.CacheMisses, misses},
		{"shed", after.Shed - e.before.Shed, 0},
		{"partials", after.Partials - e.before.Partials, 0},
		{"panics", after.Panics - e.before.Panics, 0},
	} {
		if c.got != c.want {
			rep.fail("/statz %s grew by %d over the timed phase, want %d", c.name, c.got, c.want)
		}
	}
	positions := make([]int, 0, len(e.sampled))
	for i := range e.sampled {
		positions = append(positions, i)
	}
	sort.Ints(positions)
	for _, i := range positions {
		resp := e.sampled[i]
		si := e.shapeOf[i]
		lib, err := e.libraryAnswer(si, e.bodies[i])
		if err != nil {
			rep.fail("%s: library plan: %v", e.shapes[si].name(), err)
			continue
		}
		if d := diffEntries(rankingOfResponse(resp).entries, lib.entries); d != "" {
			rep.fail("%s: sampled response %d differs from library: %s", e.shapes[si].name(), i, d)
		}
	}
}
