package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"p2"
)

// config is what one workload run is parameterised by.
type config struct {
	seed int64
	// seconds is how long the timed phase lasts; it always finishes at
	// least minOps ops, and a library workload finishes its round.
	seconds float64
	// smoke runs the light shapes once with one set-up, for the package
	// test: seconds is 0 and minOps is one round, or 20/200 requests.
	smoke bool
	// inject is the negative-control hook: "golden" corrupts one golden
	// entry, "slow" stretches every timed op by half, twice the timing
	// bounds.
	inject string
	// traceDir, when non-empty, makes this the traced run and names where
	// the span files go.
	traceDir string
}

const (
	// minTimedOps keeps at least 11 samples beyond the 90th percentile
	// however slow the machine is.
	minTimedOps = 110
	// setupRuns is how often a run repeats its set-up; setup_s is the
	// median.
	setupRuns = 5
	// sampledResponses is how many daemon responses are compared in full
	// with the library's answer to the same request.
	sampledResponses = 32
	// freshRounds bounds the pre-generated serve_fresh stream (14 requests
	// a round; ten times what this machine serves in a run).
	freshRounds = 1024
	// hotStreamLen is the pre-generated serve_hot stream, cycled.
	hotStreamLen = 1 << 16
	// sliceLen is the length of a slice of a serve workload's timed phase
	// (a library workload's slice is a round). ops_per_s is the median
	// slice's throughput, and the reference kernel runs between slices.
	sliceLen = 250 * time.Millisecond
)

func (c config) minOps(w *workload) int {
	switch {
	case !c.smoke:
		return minTimedOps
	case !w.serve:
		return 1
	case w.hot:
		return 200
	default:
		return 20
	}
}

func (c config) setups() int {
	if c.smoke {
		return 1
	}
	return setupRuns
}

func (c config) sampled() int {
	if c.smoke {
		return 4
	}
	return sampledResponses
}

// --- machine calibration ----------------------------------------------
//
// The machines this runs on share memory bandwidth with neighbours: the
// same binary's throughput drifts by ±20 % over minutes and by more over
// an hour (a pure ALU loop does not move, a memory-bound one does), which
// is more than any bound worth gating on. So a run that plans also times a
// fixed allocation- and memory-bound reference kernel, after each set-up
// and between slices of the timed phase, and reports its timings as they
// would read on a machine where the kernel takes refNominalMs. Measured
// over ten seeds a workload, spread of ops_per_s raw → calibrated: 14.1 →
// 5.8 % on cold_topk, 7.6 → 4.0 % on measured, 64.7 → 14.0 % (a noisy
// hour) and 10.1 → 2.7 % (a quiet one) on serve_fresh. serve_hot is not
// calibrated: a cache read moves 17 KB and is not memory-bound, so its
// latency holds still (5.7 %) while the kernel does not. The kernel is the
// benchmark's own and never changes with the code under test. Counts,
// allocation and the deterministic metrics are not touched; the traced
// run's per-layer times are raw.

// refNominalMs is the reference kernel's time on the quiet baseline
// machine; a run whose kernel takes twice that reports its times halved.
const refNominalMs = 8.0

var refSink [256][]int

// refKernel allocates, fills and drops 24 MB in 4 KB slices and updates a
// small map: the engine's own mix of allocation, GC and memory traffic.
func refKernel() time.Duration {
	t0 := time.Now()
	m := map[int]int{}
	for i := 0; i < 6000; i++ {
		s := make([]int, 512)
		for j := range s {
			s[j] = i + j
		}
		refSink[i%len(refSink)] = s
		m[i*7919%4096] += s[i%len(s)]
	}
	return time.Since(t0)
}

// calibrator collects a run's reference-kernel samples; off makes it
// sample nothing and report a factor of 1.
type calibrator struct {
	off bool
	ms  []float64
}

func (c *calibrator) sample() {
	if !c.off {
		c.ms = append(c.ms, ms(refKernel()))
	}
}

// factor is how many times slower than nominal the machine ran: the
// median sample over the nominal time.
func (c *calibrator) factor() float64 {
	if c.off {
		return 1
	}
	return median(c.ms) / refNominalMs
}

// report is one workload's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	// failures holds the first few failure descriptions.
	failures []string
	// metrics are the end-to-end metrics, or in a traced run the
	// per-layer ones.
	metrics map[string]float64
	// machine is the calibration factor the timings were divided by (0 in
	// a traced run, which reports raw times).
	machine float64
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// sample is one timed op; slice is the round or time slice it ran in.
type sample struct {
	shape, slice int
	ms           float64
	ok           bool
}

// heapAllocBytes reads the process's cumulative allocated bytes without
// stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func geomean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// summarize computes the timing metrics of a timed phase. slices holds
// each slice's timed wall time in seconds and machine is the calibration
// factor.
func summarize(samples []sample, shapes int, slices []float64, allocBytes uint64, machine float64) map[string]float64 {
	all := make([]float64, len(samples))
	perShape := make([][]float64, shapes)
	okInSlice := make([]float64, len(slices))
	for i, s := range samples {
		all[i] = s.ms
		perShape[s.shape] = append(perShape[s.shape], s.ms)
		if s.ok {
			okInSlice[s.slice]++
		}
	}
	sort.Float64s(all)
	var medians []float64
	for _, v := range perShape {
		if len(v) > 0 {
			medians = append(medians, median(v))
		}
	}
	// Throughput is the median slice's, so that a stall of the machine
	// costs one slice and not the run.
	for i := range okInSlice {
		okInSlice[i] /= slices[i]
	}
	return map[string]float64{
		"op_ms_p50":        percentile(all, 50) / machine,
		"op_ms_p90":        percentile(all, 90) / machine,
		"shape_ms_geomean": geomean(medians) / machine,
		"ops_per_s":        median(okInSlice) * machine,
		"alloc_mb_per_op":  float64(allocBytes) / 1e6 / float64(len(samples)),
	}
}

// runWorkload sets the workload up (several times, for a steady setup_s),
// runs its timed phase, checks every output and returns the end-to-end
// metrics — or, with cfg.traceDir set, the per-layer ones.
func runWorkload(w *workload, cfg config) (*report, error) {
	var (
		e      env
		setups []float64
		cal    = calibrator{off: w.hot} // a cache read is not memory-bound: see above
	)
	for i := 0; i < cfg.setups(); i++ {
		if e != nil {
			e.close()
		}
		// Collect the previous set-up's garbage outside the stopwatch, so
		// each repetition starts from the same heap.
		runtime.GC()
		start := time.Now()
		var err error
		if w.serve {
			e, err = setupServe(w, cfg)
		} else {
			e, err = setupLibrary(w, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		cal.sample()
	}
	defer e.close()

	rep := &report{workload: w.name}
	if cfg.traceDir != "" {
		if err := e.traced(rep, cfg); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		return rep, nil
	}
	det, err := e.checkWarmup(rep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	samples, slices, alloc := e.timed(rep, cfg, &cal)
	e.checkAfter(rep)
	rep.attempted = len(samples)
	rep.machine = cal.factor()
	rep.metrics = summarize(samples, len(e.shapeList()), slices, alloc, rep.machine)
	// Every failed check counts, also those outside the per-op ones
	// (warm-up, /statz, the sampled responses).
	rep.metrics["ok_share"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.metrics["best_pred_ms_geomean"] = det.bestPredMs
	rep.metrics["speedup_vs_allreduce_geomean"] = det.speedup
	rep.metrics["setup_s"] = median(setups) / rep.machine
	return rep, nil
}

// env is a set-up workload.
type env interface {
	shapeList() []shape
	// checkWarmup checks the warm-up round's outputs in full and derives
	// the deterministic metrics from them.
	checkWarmup(rep *report) (deterministic, error)
	// timed runs the timed phase slice by slice, checking each op outside
	// its timed interval and sampling the reference kernel between slices.
	// slices holds each slice's timed wall time in seconds.
	timed(rep *report, cfg config, cal *calibrator) (samples []sample, slices []float64, allocBytes uint64)
	// checkAfter runs the checks that need the whole phase.
	checkAfter(rep *report)
	// traced runs the traced phase and fills rep with per-layer metrics.
	traced(rep *report, cfg config) error
	close()
}

// resolveAll turns every shape into root-API arguments.
func resolveAll(shapes []shape) ([]*p2.System, []p2.Request, error) {
	sys := make([]*p2.System, len(shapes))
	reqs := make([]p2.Request, len(shapes))
	for i := range shapes {
		var err error
		if sys[i], reqs[i], err = shapes[i].resolve(); err != nil {
			return nil, nil, fmt.Errorf("shape %q: %w", shapes[i].name(), err)
		}
	}
	return sys, reqs, nil
}

// deterministic holds the two metrics that are pure functions of the code:
// they exist so that "faster" can never silently mean "plans something
// else".
type deterministic struct {
	bestPredMs float64
	speedup    float64
}
