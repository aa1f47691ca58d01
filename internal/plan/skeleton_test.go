package plan

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"p2/internal/cost"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/netsim"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/topology"
	"p2/internal/verify"
	"p2/internal/xla"
)

// skeletonCases are full rankings covering the shapes the skeleton path
// must get right: a replica-free single axis, a collapsed multi-axis
// universe with replicas, and non-power-of-two groups under the per-step
// algorithm search.
var skeletonCases = []struct {
	name  string
	sys   *topology.System
	axes  []int
	red   []int
	algos []cost.Algorithm
}{
	{"a100-4", topology.A100System(4), []int{4, 16}, []int{0}, nil},
	{"a100-4-multi-axis", topology.A100System(4), []int{16, 2, 2}, []int{0, 2}, nil},
	{"superpod-3x4-auto", topology.SuperPodSystem(3, 4), []int{12, 8}, []int{0}, cost.ExtendedAlgorithms},
}

// TestEngineLoweredEqualsLower: Candidate.Lowered assembles the program
// from the synthesis-time shapes and the placement's binding table; it must
// be indistinguishable — steps, group order, NumDevices, K, Source — from
// the semantic lower.Lower of the same program on the same hierarchy.
func TestEngineLoweredEqualsLower(t *testing.T) {
	for _, tc := range skeletonCases {
		t.Run(tc.name, func(t *testing.T) {
			matrices, err := placement.Enumerate(tc.sys.Hierarchy(), tc.axes)
			if err != nil {
				t.Fatal(err)
			}
			model := &cost.Model{Sys: tc.sys, Algo: cost.Ring, Bytes: cost.DefaultPayload(tc.sys)}
			collapse := len(tc.red) > 1
			// At parallelism 1 one worker's scratch serves every placement,
			// so a record aliasing it would lower the wrong groups.
			for _, par := range []int{1, 4} {
				cands, _, err := New().RunStreamCtx(context.Background(), streamOf(matrices), tc.red, model, Options{Parallelism: par, Collapse: collapse, Algos: tc.algos})
				if err != nil {
					t.Fatal(err)
				}
				if len(cands) == 0 {
					t.Fatal("empty ranking")
				}
				for _, c := range cands {
					h := hierarchy.MustBuild(hierarchy.KindReductionAxes, c.Matrix, tc.red, hierarchy.Options{Collapse: collapse})
					want, err := lower.Lower(c.Program, h)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(c.Lowered(), want) {
						t.Fatalf("parallelism %d, %v %v: engine lowering\n%+v\nsemantic lowering\n%+v", par, c.Matrix, c.Program, c.Lowered(), want)
					}
				}
			}
		})
	}
}

func cloneLowered(p *lower.Program) *lower.Program {
	out := *p
	out.Steps = make([]lower.Step, len(p.Steps))
	for i, st := range p.Steps {
		out.Steps[i] = st
		out.Steps[i].Groups = make([][]int, len(st.Groups))
		for gi, g := range st.Groups {
			out.Steps[i].Groups[gi] = append([]int(nil), g...)
		}
	}
	return &out
}

// TestSharedGroupsReadOnly locks the read-only contract on lower.Step.Groups:
// the steps of one placement's candidates alias the binding table's slices,
// so no consumer of a lowered program may write through them. Every
// consumer — the reference cost model, the emulator with step fusion on
// (the one that rewrites groups, on its own copies), the concrete-data
// verifier and the XLA emitter — runs over a whole ranking, after which
// every lowered program must still equal the deep copy taken before.
func TestSharedGroupsReadOnly(t *testing.T) {
	for _, tc := range skeletonCases {
		t.Run(tc.name, func(t *testing.T) {
			matrices, err := placement.Enumerate(tc.sys.Hierarchy(), tc.axes)
			if err != nil {
				t.Fatal(err)
			}
			model := &cost.Model{Sys: tc.sys, Algo: cost.Ring, Bytes: cost.DefaultPayload(tc.sys)}
			cands, _, err := New().RunStreamCtx(context.Background(), streamOf(matrices), tc.red, model, Options{Parallelism: 4, Collapse: len(tc.red) > 1, Algos: tc.algos})
			if err != nil {
				t.Fatal(err)
			}
			users := map[*[]int]int{} // steps per binding, by its first group
			shared := 0
			for _, c := range cands {
				for _, st := range c.Lowered().Steps {
					if users[&st.Groups[0]]++; users[&st.Groups[0]] == 2 {
						shared++
					}
				}
			}
			if shared == 0 {
				t.Fatal("no two steps share a binding: nothing to protect")
			}
			before := make([]*lower.Program, len(cands))
			for i, c := range cands {
				before[i] = cloneLowered(c.Lowered())
			}
			sim := &netsim.Simulator{Sys: tc.sys, Algo: cost.Ring, Bytes: model.Bytes}
			// The emulator is the slow consumer: a stride keeps the sweep
			// short while still touching every placement's table.
			stride := 1 + len(cands)/64
			for i, c := range cands {
				model.ProgramTime(c.Lowered())
				if i%stride != 0 {
					continue
				}
				sim.MeasureSteps(c.Lowered(), c.StepAlgos)
				if err := verify.Check(c.Lowered(), c.Matrix, tc.red, 2); err != nil {
					t.Fatalf("%v %v: %v", c.Matrix, c.Program, err)
				}
				if _, err := xla.Emit(c.Lowered(), c.Lowered().K<<10); err != nil {
					t.Fatalf("%v %v: %v", c.Matrix, c.Program, err)
				}
			}
			for i, c := range cands {
				if !reflect.DeepEqual(c.Lowered(), before[i]) {
					t.Fatalf("%v %v: a consumer wrote through the shared lowered program", c.Matrix, c.Program)
				}
			}
		})
	}
}

// TestScoreProgramPrunedZeroAlloc: once a placement's binding and step-cost
// tables are warm, a program the threshold cuts — the common case under
// TopK — costs indexed loads and not one allocation, pinned and searching.
func TestScoreProgramPrunedZeroAlloc(t *testing.T) {
	sys := topology.SuperPodSystem(2, 2)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	m := matrices[len(matrices)-1]
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	res := synth.Synthesize(h, synth.Options{})
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.DefaultPayload(sys)}
	for _, algos := range [][]cost.Algorithm{{cost.Ring}, cost.ExtendedAlgorithms} {
		ms := newMatrixScorer(&workerState{}, model, h, res, Options{Algos: algos})
		never := func(float64) bool { return false }
		cheapest, longest := 0.0, 0
		for pi := range res.Programs { // warm every table
			c := ms.scoreProgram(0, pi, m, never)
			if pi == 0 || c.Predicted < cheapest {
				cheapest = c.Predicted
			}
			longest = pi
		}
		if len(res.Programs[longest]) < 2 {
			t.Fatalf("longest program %v has no step to cut after", res.Programs[longest])
		}
		// A threshold at the cheapest total cuts the longest program
		// somewhere past its first step.
		cut := func(partial float64) bool { return partial > cheapest }
		if ms.scoreProgram(0, longest, m, cut) != nil {
			t.Fatalf("algos %v: %v survived a threshold of %v", algos, res.Programs[longest], cheapest)
		}
		allocs := testing.AllocsPerRun(100, func() {
			ms.scoreProgram(0, longest, m, cut)
		})
		if allocs != 0 {
			t.Errorf("algos %v: pruned program allocates %v times on warm tables, want 0", algos, allocs)
		}
	}
}

// TestScoreProgramKeptAllocsCandidate: on warm tables a program that
// survives scoring costs its Candidate and nothing else — no lowering and
// no binding into the placement's record — pinned and searching (plus the
// StepAlgos copy of a mixed winner). Lowered then binds into the record
// exactly the instructions the candidate's steps use.
func TestScoreProgramKeptAllocsCandidate(t *testing.T) {
	sys := topology.SuperPodSystem(2, 2)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	m := matrices[len(matrices)-1]
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	res := synth.Synthesize(h, synth.Options{})
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.DefaultPayload(sys)}
	never := func(float64) bool { return false }
	for _, algos := range [][]cost.Algorithm{{cost.Ring}, cost.ExtendedAlgorithms} {
		ms := newMatrixScorer(&workerState{}, model, h, res, Options{Algos: algos})
		var last *Candidate
		for pi := range res.Programs { // warm every table and the record
			last = ms.scoreProgram(0, pi, m, never)
		}
		want := 1.0
		if last.StepAlgos != nil {
			want = 2
		}
		allocs := testing.AllocsPerRun(100, func() {
			ms.scoreProgram(0, len(res.Programs)-1, m, never)
		})
		if allocs != want {
			t.Errorf("algos %v: a kept program allocates %v times on warm tables, want %v", algos, allocs, want)
		}
		if slices.ContainsFunc(last.low.groups, func(g [][]int) bool { return g != nil }) {
			t.Fatalf("algos %v: scoring bound into the record", algos)
		}
		used := map[int32]bool{}
		for _, id := range res.StepIDs[last.ProgIdx] {
			used[res.Steps[id].Instr] = true
		}
		last.Lowered()
		for i, g := range last.low.groups {
			if (g != nil) != used[int32(i)] {
				t.Errorf("algos %v: instruction %d bound %v, used by the program %v", algos, i, g != nil, used[int32(i)])
			}
		}
	}
}
