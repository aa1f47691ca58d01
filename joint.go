package p2

import (
	"context"
	"errors"
	"fmt"

	"p2/internal/netsim"
	"p2/internal/placement"
	"p2/internal/plan"
)

// Reduction describes one recurring reduction of a training step for joint
// placement planning: which axes it reduces over, how many bytes each
// occurrence moves, and how often it occurs per step.
type Reduction struct {
	// ReduceAxes are the axis indices reduced over.
	ReduceAxes []int
	// Bytes is the per-device payload of one occurrence.
	Bytes float64
	// Count is how many times the reduction runs per training step
	// (e.g. twice per transformer layer for tensor-parallel AllReduce);
	// a non-positive or NaN Count means 1, and +Inf is refused, like a +Inf
	// Bytes.
	Count float64
	// Algo is the modelled NCCL algorithm (default Ring).
	Algo Algorithm
	// Algos, when it has two or more entries, searches the per-step
	// algorithm assignment for this reduction instead of pinning Algo
	// (see Request.Algos); each reduction of a joint request may search
	// its own set.
	Algos []Algorithm
}

// JointChoice is the outcome for one placement: the best strategy per
// reduction and the weighted total communication time per step.
type JointChoice struct {
	// Matrix is the placement this choice scores.
	Matrix *Matrix
	// PerReduction[i] is the fastest-predicted strategy for reductions[i]
	// under this placement.
	PerReduction []*Strategy
	// Costs[i] is Count_i × predicted seconds of PerReduction[i].
	Costs []float64
	// Total is the summed per-step communication time.
	Total float64
	// Measured mirrors Costs with emulated seconds — Measured[i] is
	// Count_i × the emulated time of PerReduction[i] (whose raw value is
	// PerReduction[i].Measured) — and MeasuredTotal their sum, when the
	// joint plan ran in a measured mode (JointOptions.Measure); nil/0 in
	// purely analytic plans.
	Measured      []float64
	MeasuredTotal float64
}

// MeasureConcurrent emulates the choice's per-reduction strategies running
// at the same time on the shared network (different streams contending for
// the same links) and returns per-reduction completion times. Compare with
// Costs, which assumes the reductions run back to back.
func (c *JointChoice) MeasureConcurrent() []float64 {
	if len(c.PerReduction) == 0 {
		return nil
	}
	specs := make([]netsim.ConcurrentSpec, len(c.PerReduction))
	for i, s := range c.PerReduction {
		specs[i] = netsim.ConcurrentSpec{Program: s.lowered, Bytes: s.bytes, Algo: s.algo, StepAlgos: s.StepAlgos}
	}
	return (&netsim.Simulator{Sys: c.PerReduction[0].sys}).MeasureConcurrentSpecs(specs)
}

// JointPlan ranks every placement by the combined cost of all requested
// reductions.
type JointPlan struct {
	// Choices are all placements, cheapest predicted total first —
	// cheapest measured total first when the plan ran in a measured mode
	// (JointOptions.Measure). With JointOptions.TopK set, only the K
	// cheapest are present.
	Choices []*JointChoice
	// System and Axes echo the planned request.
	System *System
	Axes   []int
	// Stats reports the planning effort (placements, synthesis runs,
	// signature-memo hits, candidates scored), the pruning wins with
	// TopK set, and the emulation effort in measured modes.
	Stats plan.Stats
	// Partial marks an anytime result (PlanJointCtx): the context was
	// cancelled mid-plan and Choices holds the best-so-far placement
	// ranking — only fully-scored placements (every reduction evaluated)
	// appear, correctly ordered among themselves. Always false from
	// PlanJoint and completed requests.
	Partial bool
}

// Best returns the placement minimizing total per-step communication
// (predicted, or measured in measured modes).
func (jp *JointPlan) Best() *JointChoice { return jp.Choices[0] }

// JointOptions tune joint planning.
type JointOptions struct {
	// Parallelism bounds the planner's worker pool (0 = GOMAXPROCS,
	// 1 = sequential). Any value yields the same placement ranking.
	Parallelism int
	// TopK, when positive, keeps only the K cheapest placements.
	TopK int
	// Measure selects measured-in-the-loop placement ranking: with
	// MeasureRerank the analytic top-K placements' per-reduction winners
	// are measured on the emulator (each reduction back to back, like
	// Costs — contrast JointChoice.MeasureConcurrent) and the placements
	// re-sorted by summed weighted measured time; MeasureRankAll measures
	// every placement. MeasureOff (the zero value) ranks analytically.
	Measure MeasureMode
	// SimOpts tunes the emulator used by measured modes; ignored with
	// MeasureOff. A NoiseFrac or LaunchOverhead that is not finite and
	// >= 0 is refused.
	SimOpts SimOptions
}

// PlanJoint evaluates every placement of the axes against all reductions
// jointly — the §4.1 observation that "models with multiple parallelism
// forms involve reductions across both axes, and the selection of a mapping
// should take all of them into account" turned into an API. It is
// PlanJointCtx with default options and no deadline.
func PlanJoint(sys *System, axes []int, reductions []Reduction) (*JointPlan, error) {
	return PlanJointCtx(context.Background(), sys, axes, reductions, JointOptions{}) //p2:ctx-ok documented no-deadline compatibility entry point wrapping PlanJointCtx
}

// PlanJointCtx is PlanJoint with explicit engine options, under a context.
// Placements fan out over the worker pool and synthesis is memoized by
// hierarchy signature across both placements and reductions, so e.g. the
// data- and tensor-parallel reductions of a transformer share synthesis
// whenever their axis rows induce the same reduction hierarchy. The
// analytic placement ranking (including tie order) is identical to the
// serial test oracle's (PlanJointSerial, reference_test.go); measured
// modes (opts.Measure) re-sort it by emulated totals, equally
// deterministically.
//
// The anytime semantics are PlanCtx's: an uncancelled context changes
// nothing; on cancellation the completed placements are returned with
// JointPlan.Partial set (nil error), or the context's error if none
// finished. A Planner's shared memo is equally safe here — see
// Planner.PlanJointCtx.
func PlanJointCtx(ctx context.Context, sys *System, axes []int, reductions []Reduction, opts JointOptions) (*JointPlan, error) {
	return (&Planner{eng: plan.New()}).PlanJointCtx(ctx, sys, axes, reductions, opts)
}

// PlanJointCtx plans one joint request on the Planner's shared synthesis
// memo; see the package-level PlanJointCtx for the anytime contract.
func (pl *Planner) PlanJointCtx(ctx context.Context, sys *System, axes []int, reductions []Reduction, opts JointOptions) (*JointPlan, error) {
	if len(reductions) == 0 {
		return nil, fmt.Errorf("p2: PlanJoint needs at least one reduction")
	}
	specs := make([]plan.JointSpec, len(reductions))
	for i, red := range reductions {
		var err error
		specs[i], err = plan.Resolve(sys, plan.Reduction{Axes: axes, ReduceAxes: red.ReduceAxes, Algo: red.Algo,
			Algos: red.Algos, Bytes: red.Bytes, Count: red.Count})
		if err != nil {
			return nil, fmt.Errorf("p2: reduction %d: %w", i, err)
		}
	}
	stream := func(yield func(*placement.Matrix) bool) error {
		return placement.Iterate(sys.Hierarchy(), axes, yield)
	}
	jcs, stats, err := pl.eng.RunJointCtx(ctx, stream, specs, plan.Options{
		Parallelism: opts.Parallelism,
		TopK:        opts.TopK,
		Rerank:      opts.Measure,
		SimOpts:     opts.SimOpts,
	})
	partial := false
	if err != nil {
		if plan.IsCtxErr(err) && len(jcs) > 0 {
			partial = true
		} else {
			var noProg *plan.ErrNoPrograms
			if errors.As(err, &noProg) {
				return nil, fmt.Errorf("p2: no valid strategies for axes %v reduce %v", axes, noProg.ReduceAxes)
			}
			return nil, err
		}
	}
	jp := &JointPlan{System: sys, Axes: axes, Stats: stats, Partial: partial}
	for _, jc := range jcs {
		choice := &JointChoice{
			Matrix:        jc.Matrix,
			Costs:         jc.Costs,
			Total:         jc.Total,
			Measured:      jc.Measured,
			MeasuredTotal: jc.MeasuredTotal,
		}
		for ri, c := range jc.PerReduction {
			choice.PerReduction = append(choice.PerReduction, strategyFromCandidate(c, specs[ri].Model))
		}
		jp.Choices = append(jp.Choices, choice)
	}
	return jp, nil
}
