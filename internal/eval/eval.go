// Package eval is the experiment harness reproducing the paper's
// evaluation (§4–§5): it sweeps every parallelism matrix for a requested
// axis configuration, synthesizes every reduction program per matrix,
// predicts each program's runtime with the analytic model (internal/cost)
// and "measures" it on the event-level emulator (internal/netsim), then
// derives the quantities the paper reports — optimal programs, speedups
// over AllReduce, outperforming counts, and simulator top-k accuracy —
// plus, beyond the paper, the auto-mode (per-step NCCL_ALGO search)
// suites and their analytic-vs-measured disagreement rate (autosuite.go).
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
	Axes       []int
	ReduceAxes []int
	// Algo is the pinned NCCL algorithm (ignored when Algos sweeps a set).
	Algo cost.Algorithm
	// Algos, when it has two or more entries, sweeps the per-step
	// algorithm assignment of every program over the set ("auto" mode,
	// NCCL_ALGO as a searched dimension): each step is predicted and
	// measured under the algorithm the cost model picks for it. Empty or
	// single-entry slices pin every step to Algo (resp. the entry).
	Algos []cost.Algorithm
	// Bytes is the per-device payload; 0 means the paper's default
	// (2^29 × machines float32, machines = product of all non-leaf level
	// counts).
	Bytes float64
	// Synth carries synthesizer options (zero value = paper defaults).
	Synth synth.Options
	// Hier carries hierarchy options; Collapse is forced on for
	// multi-axis reductions as in §2.5 unless explicitly configured via
	// RawHier.
	RawHier bool
	Hier    hierarchy.Options
	// NetsimOpts tunes the emulator (zero value = defaults).
	NetsimOpts netsim.Options
}

func (c Config) payload() float64 {
	if c.Bytes > 0 {
		return c.Bytes
	}
	return cost.DefaultPayload(c.Sys)
}

// algoLabel names the config's algorithm dimension: the pinned algorithm,
// or "auto" when a set is searched.
func (c Config) algoLabel() string {
	if len(c.Algos) > 1 {
		return "auto"
	}
	if len(c.Algos) == 1 {
		return c.Algos[0].String()
	}
	return c.Algo.String()
}

func (c Config) hierOpts() hierarchy.Options {
	if c.RawHier {
		return c.Hier
	}
	o := c.Hier
	if len(c.ReduceAxes) > 1 {
		o.Collapse = true
	}
	return o
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
	Matrix        *placement.Matrix
	Hierarchy     *hierarchy.Hierarchy
	SynthesisTime time.Duration
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

// BestPredicted returns the index of the predicted-fastest program.
func (mr *MatrixResult) BestPredicted() int {
	best := 0
	for i, p := range mr.Programs {
		if p.Predicted < mr.Programs[best].Predicted {
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

// Result is a full sweep for one config.
type Result struct {
	// Config echoes the swept cell; Matrices holds one entry per
	// enumerated placement, in enumeration order.
	Config   Config
	Matrices []*MatrixResult
	// SynthesisTime is the summed synthesis wall-clock across matrices.
	SynthesisTime time.Duration
	// SimulationTime is the wall-clock spent in the analytic model.
	SimulationTime time.Duration
	// MeasureTime is the wall-clock spent in the emulator.
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

// RunCtx executes the full sweep for a config: enumerate matrices,
// synthesize per matrix, lower, predict, measure. Cancellation is checked
// between matrices and between programs, and the first observation aborts
// the sweep with ctx.Err() (an eval sweep is all-or-nothing — there is no
// partial-result mode, unlike planning's anytime contract).
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	matrices, err := placement.Enumerate(cfg.Sys.Hierarchy(), cfg.Axes)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg}
	algo := cfg.Algo
	if len(cfg.Algos) == 1 {
		algo = cfg.Algos[0]
	}
	model := &cost.Model{Sys: cfg.Sys, Algo: algo, Bytes: cfg.payload()}
	sim := &netsim.Simulator{Sys: cfg.Sys, Algo: algo, Bytes: cfg.payload(), Opts: cfg.NetsimOpts}
	baselineStr := synth.BaselineAllReduce().String()
	for _, m := range matrices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, cfg.ReduceAxes, cfg.hierOpts())
		if err != nil {
			return nil, err
		}
		sres := synth.Synthesize(h, cfg.Synth)
		mr := &MatrixResult{
			Matrix:        m,
			Hierarchy:     h,
			SynthesisTime: sres.Elapsed,
			BaselineIdx:   -1,
		}
		res.SynthesisTime += sres.Elapsed
		for _, p := range sres.Programs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			lp, err := lower.Lower(p, h)
			if err != nil {
				return nil, fmt.Errorf("eval: lowering %v for %v: %w", p, m, err)
			}
			pr := ProgramResult{Program: p, Lowered: lp, Algo: algo}
			t0 := time.Now() //p2:timing-ok SimulationTime is a reported wall-clock total, never ranked
			if len(cfg.Algos) > 1 {
				stepAlgos, pred := model.BestStepAlgos(lp, cfg.Algos)
				pr.Predicted = pred
				if a, ok := cost.UniformAlgo(stepAlgos); ok {
					pr.Algo = a
				} else {
					pr.StepAlgos = stepAlgos
				}
			} else {
				pr.Predicted = model.ProgramTime(lp)
			}
			res.SimulationTime += time.Since(t0) //p2:timing-ok SimulationTime is a reported wall-clock total, never ranked
			t1 := time.Now()                     //p2:timing-ok MeasureTime is a reported wall-clock total, never ranked
			simAlgo := *sim
			simAlgo.Algo = pr.Algo
			pr.Measured = simAlgo.MeasureSteps(lp, pr.StepAlgos)
			res.MeasureTime += time.Since(t1) //p2:timing-ok MeasureTime is a reported wall-clock total, never ranked
			if p.String() == baselineStr {
				mr.BaselineIdx = len(mr.Programs)
			}
			mr.Programs = append(mr.Programs, pr)
		}
		if mr.BaselineIdx < 0 {
			return nil, fmt.Errorf("eval: baseline AllReduce not synthesized for %v", m)
		}
		res.Matrices = append(res.Matrices, mr)
	}
	return res, nil
}

// MeasureBaseline runs only the single-AllReduce program for one matrix —
// the Table 3 quantity — returning (predicted, measured) seconds.
func MeasureBaseline(cfg Config, m *placement.Matrix) (float64, float64, error) {
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, cfg.ReduceAxes, cfg.hierOpts())
	if err != nil {
		return 0, 0, err
	}
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		return 0, 0, err
	}
	algo := cfg.Algo
	if len(cfg.Algos) == 1 {
		algo = cfg.Algos[0]
	}
	model := &cost.Model{Sys: cfg.Sys, Algo: algo, Bytes: cfg.payload()}
	sim := &netsim.Simulator{Sys: cfg.Sys, Algo: algo, Bytes: cfg.payload(), Opts: cfg.NetsimOpts}
	if len(cfg.Algos) > 1 {
		stepAlgos, pred := model.BestStepAlgos(lp, cfg.Algos)
		if a, ok := cost.UniformAlgo(stepAlgos); ok {
			sim.Algo = a
			stepAlgos = nil
		}
		return pred, sim.MeasureSteps(lp, stepAlgos), nil
	}
	return model.ProgramTime(lp), sim.Measure(lp), nil
}
