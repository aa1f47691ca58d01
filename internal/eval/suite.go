package eval

import (
	"context"
	"fmt"

	"p2/internal/cost"
	"p2/internal/factor"
	"p2/internal/topology"
)

// Case is one axis configuration of the paper's evaluation: parallelism
// axis sizes plus the reduction-axes requests evaluated for it.
type Case struct {
	Axes       []int
	ReduceAxes [][]int
}

// PaperCases generates the §4 experiment grid for a device count n:
//
//   - a single parallelism axis [n], reduced on axis 0;
//   - every two-axis combination [a, n/a], reduced on axis 0 and on axis 1;
//   - if threeAxis, the [a, 2, n/(2a)] three-axis combinations, reduced on
//     axes 0 and 2 jointly (the paper's three-axis setting).
func PaperCases(n int, threeAxis bool) []Case {
	var out []Case
	out = append(out, Case{Axes: []int{n}, ReduceAxes: [][]int{{0}}})
	for _, a := range factor.Divisors(n) {
		if a == 1 || a == n {
			continue
		}
		out = append(out, Case{Axes: []int{a, n / a}, ReduceAxes: [][]int{{0}, {1}}})
	}
	if threeAxis {
		for _, a := range factor.Divisors(n / 2) {
			if a == 1 || a == n/2 {
				continue
			}
			out = append(out, Case{Axes: []int{a, 2, n / 2 / a}, ReduceAxes: [][]int{{0, 2}}})
		}
	}
	return out
}

// Suite bundles a system with its experiment cases.
type Suite struct {
	Sys   *topology.System
	Cases []Case
}

// PaperSuites returns the four systems of the paper's evaluation (2- and
// 4-node A100 and V100) with their §4 axis grids. Three-axis cases are run
// on the 4-node systems, matching the appendix.
func PaperSuites() []Suite {
	return []Suite{
		{Sys: topology.A100System(2), Cases: PaperCases(32, false)},
		{Sys: topology.A100System(4), Cases: PaperCases(64, true)},
		{Sys: topology.V100System(2), Cases: PaperCases(16, false)},
		{Sys: topology.V100System(4), Cases: PaperCases(32, true)},
	}
}

// PaperModes are the algorithm modes of the accuracy suite, one
// Config.Algos value each: the paper's pinned Ring and Tree rows, then the
// per-step search over cost.ExtendedAlgorithms (the auto rows).
var PaperModes = [][]cost.Algorithm{{cost.Ring}, {cost.Tree}, cost.ExtendedAlgorithms}

// RunSuiteCtx executes every (case × reduction axes × mode) sweep for a
// system and returns the per-config results in that order. Each mode is
// one Config.Algos value: {Ring} and {Tree} are the paper's pinned rows,
// cost.ExtendedAlgorithms the per-step search (CLI `-algo auto`). The
// first cancellation observed aborts the suite with ctx.Err().
func RunSuiteCtx(ctx context.Context, s Suite, modes ...[]cost.Algorithm) ([]*Result, error) {
	var out []*Result
	for _, c := range s.Cases {
		for _, red := range c.ReduceAxes {
			for _, algos := range modes {
				cfg := Config{Sys: s.Sys, Axes: c.Axes, ReduceAxes: red, Algos: algos}
				r, err := RunCtx(ctx, cfg)
				if err != nil {
					return nil, fmt.Errorf("eval: %s: %w", cfg, err)
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}
