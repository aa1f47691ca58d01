package main

// layers.go is the only file of the benchmark that names symbols under
// p2/internal. Everything else goes through the public root API or the
// thin functions here, so an internal API move is a one-file fix. The
// per-layer metrics time calls into these functions from outside; nothing
// in the engine is instrumented.

import (
	"context"
	"net/http"

	"p2"
	"p2/internal/cost"
	"p2/internal/hierarchy"
	"p2/internal/load"
	"p2/internal/lower"
	"p2/internal/netsim"
	"p2/internal/placement"
	"p2/internal/plan"
	"p2/internal/serve"
	"p2/internal/synth"
	"p2/internal/verify"
)

type (
	hier         = hierarchy.Hierarchy
	lowered      = lower.Program
	costModel    = cost.Model
	costScorer   = cost.Scorer
	planStats    = plan.Stats
	planRequest  = serve.PlanRequest
	planResponse = serve.PlanResponse
	statz        = serve.Statz
)

// placement

func iteratePlacements(sys *p2.System, axes []int, yield func(*p2.Matrix) bool) error {
	return placement.Iterate(sys.Hierarchy(), axes, yield)
}

// hierarchy

// buildHierarchy builds the reduction hierarchy the way the planner does
// (collapse same-level factors on multi-axis reductions).
func buildHierarchy(m *p2.Matrix, reduce []int) (*hier, error) {
	return hierarchy.Build(hierarchy.KindReductionAxes, m, reduce, hierarchy.Options{Collapse: len(reduce) > 1})
}

// synth

func synthesize(h *hier) []p2.Program { return synth.Synthesize(h, synth.Options{}).Programs }

func baselineAllReduce() p2.Program { return synth.BaselineAllReduce() }

// lower

func lowerProgram(p p2.Program, h *hier) (*lowered, error) { return lower.Lower(p, h) }

// cost

func newScorer(sys *p2.System) *costScorer { return cost.NewScorer(sys) }

// modelFor is the cost model the planner scores req with (paper-default
// payload when the request names none).
func modelFor(sys *p2.System, req p2.Request) *costModel {
	bytes := req.Bytes
	if !(bytes > 0) {
		bytes = cost.DefaultPayload(sys)
	}
	return &cost.Model{Sys: sys, Algo: req.Algo, Bytes: bytes}
}

func parseAlgorithm(s string) (p2.Algorithm, error) { return cost.ParseAlgorithm(s) }

// algoString renders an algorithm choice like Strategy.AlgoString: a
// uniform per-step assignment collapses to the algorithm it names.
func algoString(fixed p2.Algorithm, stepAlgos []p2.Algorithm) string {
	if a, ok := cost.UniformAlgo(stepAlgos); ok {
		return a.String()
	}
	return cost.FormatAlgos(fixed, stepAlgos)
}

// netsim

// simulate emulates one lowered program; events, when non-nil, counts the
// transfers the emulator completes.
func simulate(m *costModel, lp *lowered, stepAlgos []p2.Algorithm, events *int) float64 {
	sim := &netsim.Simulator{Sys: m.Sys, Algo: m.Algo, Bytes: m.Bytes}
	if events != nil {
		sim.Recorder = func(netsim.Event) { *events++ }
	}
	return sim.MeasureSteps(lp, stepAlgos)
}

// verify

// verifyLowered runs the lowered program on the concrete-data interpreter,
// which shares no code with the synthesizer.
func verifyLowered(lp *lowered, m *p2.Matrix, reduce []int) error {
	return verify.Check(lp, m, reduce, 2)
}

// plan

// engineRun calls the planning engine directly with what p2.Planner.PlanCtx
// would pass it, so that p2.wrap_ms is the root package's own share:
// defaults and strategy adoption.
func engineRun(ctx context.Context, sys *p2.System, req p2.Request) (int, error) {
	algos := req.Algos
	if len(algos) == 0 {
		algos = []p2.Algorithm{req.Algo}
	}
	stream := func(yield func(*p2.Matrix) bool) error {
		return placement.Iterate(sys.Hierarchy(), req.Axes, yield)
	}
	cands, _, err := plan.New().RunStreamCtx(ctx, stream, req.ReduceAxes,
		modelFor(sys, req),
		plan.Options{
			TopK:     req.TopK,
			Collapse: len(req.ReduceAxes) > 1,
			Algos:    algos,
			Rerank:   req.Measure,
			SimOpts:  req.SimOpts,
		})
	return len(cands), err
}

// serve and load

func catalog() []planRequest { return load.Catalog() }

// hotStream is the load harness's seeded stream with every request drawn
// verbatim from the first hotSet catalog entries, so every request repeats
// a cache key.
func hotStream(seed int64, n, hotSet int) ([]string, error) {
	reqs, err := load.Generate(load.WorkloadConfig{Seed: seed, HotFrac: 1, HotSetSize: hotSet}, n)
	if err != nil {
		return nil, err
	}
	bodies := make([]string, len(reqs))
	for i, r := range reqs {
		bodies[i] = r.Body
	}
	return bodies, nil
}

// bootDaemon starts the daemon with its default configuration on a
// loopback listener, warm-started with the given requests.
func bootDaemon(warm []planRequest) (url string, shutdown func(), err error) {
	url, _, shutdown, err = load.InProcess(serve.Config{}, warm)
	return url, shutdown, err
}

// warmHandler is the same daemon without a socket, for timing the handler
// alone.
func warmHandler(ctx context.Context, warm []planRequest) (http.Handler, error) {
	s := serve.NewServer(serve.Config{})
	if _, err := s.Warm(ctx, warm); err != nil {
		return nil, err
	}
	return s.Handler(), nil
}

func newClient(concurrency int) *http.Client { return load.NewClient(concurrency) }

func fetchStatz(c *http.Client, url string) (*statz, error) { return load.FetchStatz(c, url) }

// percentile is the daemon's nearest-rank percentile of a sorted sample,
// so client- and server-side numbers use one formula.
func percentile(sorted []float64, p float64) float64 { return serve.Percentile(sorted, p) }
