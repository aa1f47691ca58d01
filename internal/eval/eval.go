// Package eval is the experiment harness reproducing the paper's
// evaluation (§4–§5): it sweeps every parallelism matrix for a requested
// axis configuration, ranks every synthesized reduction program per matrix
// through the planning engine (internal/plan) with the analytic model
// (internal/cost), "measures" each one on the event-level emulator
// (internal/netsim), then derives the quantities the paper reports —
// optimal programs, speedups over AllReduce, outperforming counts, and
// simulator top-k accuracy — plus, beyond the paper, the auto-mode
// (per-step NCCL_ALGO search) suites and their analytic-vs-measured
// disagreement rate (autosuite.go).
package eval

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"p2/internal/cost"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/netsim"
	"p2/internal/placement"
	"p2/internal/plan"
	"p2/internal/synth"
	"p2/internal/topology"
)

// Config is one experiment cell: a system, an axis configuration, the
// reduction axes, and the NCCL algorithm.
type Config struct {
	// Sys is the system swept.
	Sys *topology.System
	// Axes are the parallelism axis sizes (their product must equal the
	// device count) and ReduceAxes the axis indices reduced over.
	// Multi-axis reductions collapse same-level factors as in §2.5.
	Axes       []int
	ReduceAxes []int
	// Algos is the algorithm set: one entry pins every step to it (the
	// paper's Ring and Tree sweeps), nil pins Ring (plan.Resolve), and two
	// or more sweep the per-step assignment of every program over the set
	// ("auto" mode, NCCL_ALGO as a searched dimension).
	Algos []cost.Algorithm
	// Bytes is the per-device payload; 0 means the paper's default
	// (2^29 × machines float32, machines = product of all non-leaf level
	// counts).
	Bytes float64
	// NetsimOpts tunes the emulator (zero value = defaults).
	NetsimOpts netsim.Options
}

// spec resolves the config through the engine's one request resolution.
func (c Config) spec() (plan.JointSpec, error) {
	return plan.Resolve(c.Sys, plan.Reduction{Axes: c.Axes, ReduceAxes: c.ReduceAxes, Algos: c.Algos, Bytes: c.Bytes})
}

// algoLabel names the config's algorithm dimension as the engine resolves
// it: the pinned algorithm, or "auto" when a set is searched.
func (c Config) algoLabel() string {
	spec, _ := plan.Resolve(c.Sys, plan.Reduction{Algos: c.Algos}) // no payload or count to refuse
	if len(spec.Algos) > 1 {
		return "auto"
	}
	return spec.Model.Algo.String()
}

// String identifies the config, e.g. "a100-4node/[16 2 2]/red[0 2]/Ring"
// (or ".../auto" when an algorithm set is swept).
func (c Config) String() string {
	return fmt.Sprintf("%s/%v/red%v/%s", c.Sys.Name, c.Axes, c.ReduceAxes, c.algoLabel())
}

// MatrixResult groups the candidates of one parallelism matrix.
type MatrixResult struct {
	Matrix *placement.Matrix
	// Programs in synthesis order; Programs[BaselineIdx] is the
	// single-step AllReduce.
	Programs    []*plan.Candidate
	BaselineIdx int
}

// Baseline returns the single-AllReduce candidate.
func (mr *MatrixResult) Baseline() *plan.Candidate { return mr.Programs[mr.BaselineIdx] }

// BestMeasured returns the measured-fastest candidate, ties broken toward
// the earliest synthesis position.
func (mr *MatrixResult) BestMeasured() *plan.Candidate {
	best := mr.Programs[0]
	for _, c := range mr.Programs[1:] {
		if c.Measured < best.Measured {
			best = c
		}
	}
	return best
}

// Speedup is the baseline-over-optimal measured ratio (≥ ~1).
func (mr *MatrixResult) Speedup() float64 {
	return mr.Baseline().Measured / mr.BestMeasured().Measured
}

// Outperforming counts programs measured strictly faster than the baseline
// AllReduce.
func (mr *MatrixResult) Outperforming() int {
	base := mr.Baseline().Measured
	n := 0
	for _, c := range mr.Programs {
		if c.Measured < base {
			n++
		}
	}
	return n
}

// Result is a full sweep for one config: the engine's candidates, measured,
// in two views that share them. The three wall-clock fields are reported,
// never ranked.
type Result struct {
	// Config echoes the swept cell, its Bytes resolved; Matrices holds one
	// entry per enumerated placement, in enumeration order.
	Config   Config
	Matrices []*MatrixResult
	// Ranked is the engine's analytic ranking of every candidate
	// (plan.Less: predicted time, ties in enumeration order).
	Ranked []*plan.Candidate
	// SynthesisTime is the engine's synthesis wall-clock
	// (plan.Stats.SynthElapsed): one run per distinct hierarchy signature,
	// not per placement.
	SynthesisTime time.Duration
	// SimulationTime is the wall-clock of the analytic engine call — the
	// worker pool runs synthesis, lowering and scoring together, so it
	// includes SynthesisTime.
	SimulationTime time.Duration
	// MeasureTime is the wall-clock of the emulator fan-out (plan.Measure).
	MeasureTime time.Duration
}

// TotalPrograms counts the sweep's candidates.
func (r *Result) TotalPrograms() int { return len(r.Ranked) }

// TotalOutperforming sums Outperforming over all matrices.
func (r *Result) TotalOutperforming() int {
	n := 0
	for _, mr := range r.Matrices {
		n += mr.Outperforming()
	}
	return n
}

// MeasuredBest returns the sweep's measured-best candidate, ties broken
// toward the earliest enumeration position; nil for an empty sweep.
func (r *Result) MeasuredBest() *plan.Candidate {
	var best *plan.Candidate
	for _, mr := range r.Matrices {
		if c := mr.BestMeasured(); best == nil || c.Measured < best.Measured {
			best = c
		}
	}
	return best
}

// TopKHit reports whether the measured-best candidate of the sweep is among
// the k best-predicted ones (the paper's top-k accuracy criterion, §5).
func (r *Result) TopKHit(k int) bool {
	return slices.Contains(r.Ranked[:min(k, len(r.Ranked))], r.MeasuredBest())
}

// byMeasured lists the sweep's candidates in increasing order of measured
// time, ties in enumeration order (Figure 11's x axis).
func (r *Result) byMeasured() []*plan.Candidate {
	var out []*plan.Candidate
	for _, mr := range r.Matrices {
		out = append(out, mr.Programs...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Measured < out[b].Measured })
	return out
}

// topKs are the k of every top-k accuracy the package reports (Table 5 and
// the auto-suite export).
var topKs = []int{1, 2, 3, 5, 6, 10}

// Accuracy summarizes top-k accuracy over many sweeps (Table 5).
func Accuracy(results []*Result, ks []int) map[int]float64 {
	out := map[int]float64{}
	if len(results) == 0 {
		return out
	}
	for _, k := range ks {
		hits := 0
		for _, r := range results {
			if r.TopKHit(k) {
				hits++
			}
		}
		out[k] = float64(hits) / float64(len(results))
	}
	return out
}

// rankAll is every sweep's engine call: the full analytic ranking of the
// request on model's system, TopK 0 so that nothing is pruned.
func rankAll(ctx context.Context, model *cost.Model, axes []int, spec plan.JointSpec, opts plan.Options) ([]*plan.Candidate, plan.Stats, error) {
	stream := func(yield func(*placement.Matrix) bool) error {
		return placement.Iterate(model.Sys.Hierarchy(), axes, yield)
	}
	return plan.New().RunStreamCtx(ctx, stream, spec.ReduceAxes, model, spec.Options(opts))
}

// RunCtx executes the full sweep for a config through the planning engine:
// rank every (matrix, program) candidate with no pruning (rankAll), measure
// every candidate (plan.Measure), and group them per matrix in synthesis
// order. A sweep is all-or-nothing: any error — including cancellation,
// whose anytime partial ranking is discarded — returns (nil, err).
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	spec, err := cfg.spec()
	if err != nil {
		return nil, err
	}
	opts := plan.Options{SimOpts: cfg.NetsimOpts}
	t0 := time.Now() //p2:timing-ok SimulationTime is a reported wall-clock total, never ranked
	cands, stats, err := rankAll(ctx, spec.Model, cfg.Axes, spec, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Ranked: cands, SynthesisTime: stats.SynthElapsed}
	res.SimulationTime = time.Since(t0) //p2:timing-ok SimulationTime is a reported wall-clock total, never ranked
	t1 := time.Now()                    //p2:timing-ok MeasureTime is a reported wall-clock total, never ranked
	if err := plan.Measure(ctx, cands, spec.Model, opts); err != nil {
		return nil, err
	}
	res.MeasureTime = time.Since(t1) //p2:timing-ok MeasureTime is a reported wall-clock total, never ranked
	res.Config.Bytes = spec.Model.Bytes

	byEnum := slices.Clone(cands)
	slices.SortFunc(byEnum, func(a, b *plan.Candidate) int {
		return cmp.Or(cmp.Compare(a.MatrixIdx, b.MatrixIdx), cmp.Compare(a.ProgIdx, b.ProgIdx))
	})
	res.Matrices = make([]*MatrixResult, stats.Placements)
	baselineStr := synth.BaselineAllReduce().String()
	for _, c := range byEnum {
		mr := res.Matrices[c.MatrixIdx]
		if mr == nil {
			mr = &MatrixResult{Matrix: c.Matrix, BaselineIdx: -1}
			res.Matrices[c.MatrixIdx] = mr
		}
		if c.Program.String() == baselineStr {
			mr.BaselineIdx = len(mr.Programs)
		}
		mr.Programs = append(mr.Programs, c)
	}
	for mi, mr := range res.Matrices {
		if mr == nil || mr.BaselineIdx < 0 {
			return nil, fmt.Errorf("eval: baseline AllReduce not synthesized for placement %d", mi)
		}
	}
	return res, nil
}

// MeasureBaseline runs only the single-AllReduce program for one matrix
// under the config's pinned algorithm and returns its measured seconds,
// the Table 3 quantity.
func MeasureBaseline(cfg Config, m *placement.Matrix) (float64, error) {
	if err := cfg.NetsimOpts.Validate(); err != nil {
		return 0, err
	}
	spec, err := cfg.spec()
	if err != nil {
		return 0, err
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, spec.ReduceAxes, hierarchy.Options{Collapse: spec.Collapse})
	if err != nil {
		return 0, err
	}
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		return 0, err
	}
	sim := &netsim.Simulator{Sys: cfg.Sys, Algo: spec.Model.Algo, Bytes: spec.Model.Bytes, Opts: cfg.NetsimOpts}
	return sim.Measure(lp), nil
}
