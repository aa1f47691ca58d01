package p2

// The serial reference implementations the planning engine is checked
// against. They are test oracles, not API: they live in a _test file of
// package p2 so that the external p2_test files (determinism, bench and
// payload tests) keep calling p2.PlanSerial while nothing outside the
// tests can.

import (
	"fmt"
	"sort"

	"p2/internal/cost"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/plan"
	"p2/internal/synth"
)

// planMatrices resolves the placement set of a request.
func planMatrices(sys *System, req Request) ([]*Matrix, error) {
	if req.Matrix != nil {
		return []*Matrix{req.Matrix}, nil
	}
	return Placements(sys, req.Axes)
}

// serialLowered is a serial strategy's lowering: lower.Lower's program,
// built while ranking.
type serialLowered struct{ lp *lower.Program }

func (l serialLowered) Lowered() *lower.Program { return l.lp }

// PlanSerial is the reference implementation of Plan: one placement at a
// time, a fresh synthesis per placement, full materialization, stable
// sort, and — with req.Algos set — a brute-force per-algorithm sweep over
// every step of every program (no step-cost memo). It ignores
// req.Parallelism, req.TopK and req.Measure (its ranking is always the
// full analytic one). The parallel engine is required to
// reproduce its ranking byte for byte (see the equivalence tests); it
// exists for exactly that cross-check and for ablation benchmarks of the
// engine.
func PlanSerial(sys *System, req Request) (*PlanResult, error) {
	req, err := req.Resolve(sys)
	if err != nil {
		return nil, err
	}
	matrices, err := planMatrices(sys, req)
	if err != nil {
		return nil, err
	}
	model := &cost.Model{Sys: sys, Algo: req.Algo, Bytes: req.Bytes}
	res := &PlanResult{Request: req, System: sys}
	for _, m := range matrices {
		opts := hierarchy.Options{Collapse: len(req.ReduceAxes) > 1}
		h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, req.ReduceAxes, opts)
		if err != nil {
			return nil, err
		}
		sres := synth.Synthesize(h, synth.Options{MaxSize: req.MaxProgramSize})
		for _, prog := range sres.Programs {
			lp, err := lower.Lower(prog, h)
			if err != nil {
				return nil, err
			}
			s := &Strategy{
				Matrix:  m,
				Program: prog,
				cand:    serialLowered{lp},
				sys:     sys,
				algo:    req.Algo,
				bytes:   req.Bytes,
			}
			if len(req.Algos) > 1 {
				stepAlgos, predicted := model.BestStepAlgos(lp, req.Algos)
				s.Predicted = predicted
				if a, ok := cost.UniformAlgo(stepAlgos); ok {
					s.algo = a
				} else {
					s.StepAlgos = stepAlgos
				}
			} else {
				s.Predicted = model.ProgramTime(lp)
			}
			res.Strategies = append(res.Strategies, s)
		}
	}
	if len(res.Strategies) == 0 {
		return nil, fmt.Errorf("p2: no valid strategies for axes %v reduce %v", req.Axes, req.ReduceAxes)
	}
	sort.SliceStable(res.Strategies, func(i, j int) bool {
		return res.Strategies[i].Predicted < res.Strategies[j].Predicted
	})
	res.Stats = plan.Stats{Placements: len(matrices), SynthRuns: len(matrices),
		Candidates: len(res.Strategies)}
	return res, nil
}

// PlanJointSerial is the reference implementation of PlanJoint: one
// placement at a time, one full serial Plan per (placement, reduction),
// always analytic (no measured mode). The parallel engine must reproduce
// its placement ranking byte for byte (see the equivalence tests).
func PlanJointSerial(sys *System, axes []int, reductions []Reduction) (*JointPlan, error) {
	if len(reductions) == 0 {
		return nil, fmt.Errorf("p2: PlanJoint needs at least one reduction")
	}
	matrices, err := Placements(sys, axes)
	if err != nil {
		return nil, err
	}
	jp := &JointPlan{System: sys, Axes: axes}
	for _, m := range matrices {
		choice := &JointChoice{Matrix: m}
		for _, red := range reductions {
			plan, err := PlanSerial(sys, Request{
				Axes:       axes,
				ReduceAxes: red.ReduceAxes,
				Algo:       red.Algo,
				Algos:      red.Algos,
				Bytes:      red.Bytes,
				Matrix:     m,
			})
			if err != nil {
				return nil, err
			}
			best := plan.Best()
			count := red.Count
			if count <= 0 {
				count = 1
			}
			choice.PerReduction = append(choice.PerReduction, best)
			choice.Costs = append(choice.Costs, count*best.Predicted)
			choice.Total += count * best.Predicted
		}
		jp.Choices = append(jp.Choices, choice)
	}
	sort.SliceStable(jp.Choices, func(i, j int) bool {
		return jp.Choices[i].Total < jp.Choices[j].Total
	})
	return jp, nil
}
