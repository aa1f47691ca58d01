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
	"context"
	"fmt"
	"sort"
	"time"

	"p2/internal/cost"
	"p2/internal/dsl"
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
	return plan.Resolve(c.Sys, plan.Reduction{ReduceAxes: c.ReduceAxes, Algos: c.Algos, Bytes: c.Bytes})
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

// ProgramResult is one synthesized program with its predicted and measured
// runtimes.
type ProgramResult struct {
	Program   dsl.Program
	Lowered   *lower.Program
	Predicted float64 // analytic model, seconds
	Measured  float64 // event-level emulator, seconds
	// StepAlgos is the winning per-step algorithm assignment in auto
	// mode; nil when the sweep pinned one algorithm or the winner was
	// uniform (AlgoString names it either way).
	StepAlgos []cost.Algorithm
	// Algo is the fixed algorithm of every step not overridden by
	// StepAlgos (the config's pinned algorithm, or the uniform winner of
	// an auto sweep).
	Algo cost.Algorithm
}

// AlgoString names the program's algorithm assignment compactly: one name
// when uniform, a "/"-joined per-step sequence otherwise.
func (p ProgramResult) AlgoString() string {
	return cost.FormatAlgos(p.Algo, p.StepAlgos)
}

// MatrixResult groups the programs synthesized for one parallelism matrix.
type MatrixResult struct {
	Matrix *placement.Matrix
	// Programs in synthesis order; Programs[BaselineIdx] is the
	// single-step AllReduce.
	Programs    []ProgramResult
	BaselineIdx int
}

// Baseline returns the single-AllReduce result.
func (mr *MatrixResult) Baseline() ProgramResult { return mr.Programs[mr.BaselineIdx] }

// BestMeasured returns the index of the measured-fastest program.
func (mr *MatrixResult) BestMeasured() int {
	best := 0
	for i, p := range mr.Programs {
		if p.Measured < mr.Programs[best].Measured {
			best = i
		}
	}
	return best
}

// Speedup is the baseline-over-optimal measured ratio (≥ ~1).
func (mr *MatrixResult) Speedup() float64 {
	return mr.Baseline().Measured / mr.Programs[mr.BestMeasured()].Measured
}

// Outperforming counts programs measured strictly faster than the baseline
// AllReduce.
func (mr *MatrixResult) Outperforming() int {
	base := mr.Baseline().Measured
	n := 0
	for _, p := range mr.Programs {
		if p.Measured < base {
			n++
		}
	}
	return n
}

// Result is a full sweep for one config. The three wall-clock fields are
// reported, never ranked.
type Result struct {
	// Config echoes the swept cell, its Bytes resolved; Matrices holds one
	// entry per enumerated placement, in enumeration order.
	Config   Config
	Matrices []*MatrixResult
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

// TotalPrograms sums program counts over all matrices.
func (r *Result) TotalPrograms() int {
	n := 0
	for _, mr := range r.Matrices {
		n += len(mr.Programs)
	}
	return n
}

// TotalOutperforming sums Outperforming over all matrices.
func (r *Result) TotalOutperforming() int {
	n := 0
	for _, mr := range r.Matrices {
		n += mr.Outperforming()
	}
	return n
}

// Pair is a flattened (matrix, program) entry used for ranking.
type Pair struct {
	// MatrixIdx / ProgramIdx index into Result.Matrices and its Programs.
	MatrixIdx  int
	ProgramIdx int
	// Predicted and Measured are the candidate's analytic and emulated
	// runtimes in seconds.
	Predicted float64
	Measured  float64
}

// Pairs flattens the sweep into ranking entries.
func (r *Result) Pairs() []Pair {
	var out []Pair
	for mi, mr := range r.Matrices {
		for pi, p := range mr.Programs {
			out = append(out, Pair{mi, pi, p.Predicted, p.Measured})
		}
	}
	return out
}

// TopKHit reports whether the measured-best pair of the sweep is among the
// k best-predicted pairs (the paper's top-k accuracy criterion, §5).
func (r *Result) TopKHit(k int) bool {
	pairs := r.Pairs()
	if len(pairs) == 0 {
		return false
	}
	best := 0
	for i, p := range pairs {
		if p.Measured < pairs[best].Measured {
			best = i
		}
	}
	byPred := make([]int, len(pairs))
	for i := range byPred {
		byPred[i] = i
	}
	sort.SliceStable(byPred, func(a, b int) bool {
		return pairs[byPred[a]].Predicted < pairs[byPred[b]].Predicted
	})
	for rank := 0; rank < k && rank < len(byPred); rank++ {
		if byPred[rank] == best {
			return true
		}
	}
	return false
}

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

// RunCtx executes the full sweep for a config through the planning engine:
// stream the matrices, rank every (matrix, program) candidate with no
// pruning (plan.Planner.RunStreamCtx, TopK 0), measure every candidate
// (plan.Measure), and regroup them per matrix in synthesis order. A sweep
// is all-or-nothing: any error — including cancellation, whose anytime
// partial ranking is discarded — returns (nil, err).
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	spec, err := cfg.spec()
	if err != nil {
		return nil, err
	}
	var matrices []*placement.Matrix
	stream := func(yield func(*placement.Matrix) bool) error {
		return placement.Iterate(cfg.Sys.Hierarchy(), cfg.Axes, func(m *placement.Matrix) bool {
			matrices = append(matrices, m)
			return yield(m)
		})
	}
	opts := spec.Options(plan.Options{SimOpts: cfg.NetsimOpts})
	t0 := time.Now() //p2:timing-ok SimulationTime is a reported wall-clock total, never ranked
	cands, stats, err := plan.New().RunStreamCtx(ctx, stream, spec.ReduceAxes, spec.Model, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, SynthesisTime: stats.SynthElapsed}
	res.SimulationTime = time.Since(t0) //p2:timing-ok SimulationTime is a reported wall-clock total, never ranked
	t1 := time.Now()                    //p2:timing-ok MeasureTime is a reported wall-clock total, never ranked
	if err := plan.Measure(ctx, cands, spec.Model, opts); err != nil {
		return nil, err
	}
	res.MeasureTime = time.Since(t1) //p2:timing-ok MeasureTime is a reported wall-clock total, never ranked
	res.Config.Bytes = spec.Model.Bytes

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].MatrixIdx != cands[j].MatrixIdx {
			return cands[i].MatrixIdx < cands[j].MatrixIdx
		}
		return cands[i].ProgIdx < cands[j].ProgIdx
	})
	res.Matrices = make([]*MatrixResult, len(matrices))
	for mi, m := range matrices {
		res.Matrices[mi] = &MatrixResult{Matrix: m, BaselineIdx: -1}
	}
	baselineStr := synth.BaselineAllReduce().String()
	for _, c := range cands {
		mr := res.Matrices[c.MatrixIdx]
		pr := ProgramResult{Program: c.Program, Lowered: c.Lowered, Predicted: c.Predicted,
			Measured: c.Measured, StepAlgos: c.StepAlgos, Algo: spec.Model.Algo}
		if a, ok := cost.UniformAlgo(c.StepAlgos); ok {
			pr.Algo, pr.StepAlgos = a, nil
		}
		if c.Program.String() == baselineStr {
			mr.BaselineIdx = len(mr.Programs)
		}
		mr.Programs = append(mr.Programs, pr)
	}
	for _, mr := range res.Matrices {
		if mr.BaselineIdx < 0 {
			return nil, fmt.Errorf("eval: baseline AllReduce not synthesized for %v", mr.Matrix)
		}
	}
	return res, nil
}

// MeasureBaseline runs only the single-AllReduce program for one matrix
// under the config's pinned algorithm — the Table 3 quantity — returning
// (predicted, measured) seconds.
func MeasureBaseline(cfg Config, m *placement.Matrix) (float64, float64, error) {
	if err := cfg.NetsimOpts.Validate(); err != nil {
		return 0, 0, err
	}
	spec, err := cfg.spec()
	if err != nil {
		return 0, 0, err
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, spec.ReduceAxes, hierarchy.Options{Collapse: spec.Collapse})
	if err != nil {
		return 0, 0, err
	}
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		return 0, 0, err
	}
	sim := &netsim.Simulator{Sys: cfg.Sys, Algo: spec.Model.Algo, Bytes: spec.Model.Bytes, Opts: cfg.NetsimOpts}
	return spec.Model.ProgramTime(lp), sim.Measure(lp), nil
}
