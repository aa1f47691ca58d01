package netsim

import (
	"fmt"
	"math"
	"testing"

	"p2/internal/collective"
	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/lower"
	"p2/internal/synth"
	"p2/internal/topology"
)

// TestExplicitZeroLaunchOverhead locks the Options bugfix: a literal zero
// per-step overhead is expressible via DisableLaunchOverhead, and the
// default still applies when neither field is set.
func TestExplicitZeroLaunchOverhead(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		dsl.Program{
			{Slice: 0, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
			{Slice: 0, Form: dsl.InsideGroup, Op: collective.AllGather},
		})
	sys := topology.A100System(4)
	base := &Simulator{Sys: sys, Algo: cost.Ring, Bytes: 1e9,
		Opts: Options{DisableNoise: true}}
	zero := &Simulator{Sys: sys, Algo: cost.Ring, Bytes: 1e9,
		Opts: Options{DisableNoise: true, DisableLaunchOverhead: true}}
	tBase, tZero := base.Measure(lp), zero.Measure(lp)
	// Two steps at the default 30 µs each separate the two runs exactly.
	want := 2 * defaultLaunchOverhead
	if diff := tBase - tZero; math.Abs(diff-want) > 1e-12 {
		t.Errorf("default-vs-zero overhead gap = %v, want %v", diff, want)
	}
	// DisableLaunchOverhead wins over an explicit non-zero value.
	forced := &Simulator{Sys: sys, Algo: cost.Ring, Bytes: 1e9,
		Opts: Options{DisableNoise: true, DisableLaunchOverhead: true, LaunchOverhead: 1.0}}
	if got := forced.Measure(lp); got != tZero {
		t.Errorf("DisableLaunchOverhead with LaunchOverhead set = %v, want %v", got, tZero)
	}
}

// TestHalvingDoublingCrossCheckPow2 cross-checks the analytic HD model
// against the emulator on the power-of-two path: a group spanning nodes
// with a pow2 size must land within 15% with noise and overheads off.
func TestHalvingDoublingCrossCheckPow2(t *testing.T) {
	// [[4 1] [1 16]]: 16 groups of 4 (one member per node) — every HD
	// exchange crosses the NIC.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{4, 1}, {1, 16}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	model := &cost.Model{Sys: sys, Algo: cost.HalvingDoubling, Bytes: cost.PayloadBytes(4)}
	pred := model.ProgramTime(lp)
	meas := quietSim(sys, cost.HalvingDoubling, cost.PayloadBytes(4)).Measure(lp)
	if math.Abs(meas-pred)/pred > 0.15 {
		t.Errorf("all-remote HD: emulated %v vs analytic %v (>15%% apart)", meas, pred)
	}
}

// TestHalvingDoublingCrossCheckResidual cross-checks the analytic model
// against the emulator on the residual (non-power-of-two) schedule for
// every residual size the acceptance criteria name: with noise and
// overheads off, one-member-per-node groups of n ∈ {3, 5, 6, 7, 12} must
// land within 15% — and must NOT reproduce the ring numbers, proving the
// fallback is gone from both executions.
func TestHalvingDoublingCrossCheckResidual(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 12} {
		sys := topology.MustNew(fmt.Sprintf("odd-%d", n),
			[]topology.Level{{Name: "node", Count: n}, {Name: "gpu", Count: 4}},
			[]topology.Link{
				{Name: "NIC", Bandwidth: 8e9, Latency: 2e-5},
				{Name: "NVL", Bandwidth: 200e9, Latency: 2e-6},
			})
		// [[n 1] [1 4]]: 4 groups of n, one member per node.
		lp := lowerFor(t, []int{n, 4}, []int{n, 4}, [][]int{{n, 1}, {1, 4}}, []int{0},
			synth.BaselineAllReduce())
		// The emulator must execute the fold round, the 2·log2(p) core
		// rounds and the unfold round — not a ring's 2(n-1) rounds.
		g := lp.Steps[0].Groups[0]
		wantRounds := 2
		for q := 1; q < cost.CorePow2(n); q *= 2 {
			wantRounds += 2
		}
		if _, rounds := scheduleRounds(sys, collective.AllReduce, g, 1e9, cost.HalvingDoubling, nil, nil); len(rounds) != wantRounds {
			t.Errorf("n=%d: emulator runs %d rounds, want %d (fold + core + unfold)", n, len(rounds), wantRounds)
		}
		hdModel := &cost.Model{Sys: sys, Algo: cost.HalvingDoubling, Bytes: 1e9}
		pred := hdModel.ProgramTime(lp)
		meas := quietSim(sys, cost.HalvingDoubling, 1e9).Measure(lp)
		if math.Abs(meas-pred)/pred > 0.15 {
			t.Errorf("n=%d: emulated residual HD %v vs analytic %v (>15%% apart)", n, meas, pred)
		}
		ringModel := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: 1e9}
		if rp := ringModel.ProgramTime(lp); rp == pred {
			t.Errorf("n=%d: analytic residual HD still equals ring (%v)", n, pred)
		}
		if rm := quietSim(sys, cost.Ring, 1e9).Measure(lp); rm == meas {
			t.Errorf("n=%d: emulated residual HD still equals ring (%v)", n, meas)
		}
	}
}

// TestMeasureStepsPerStepAlgos exercises MeasureSteps: a uniform
// assignment is canonicalized to the fixed algorithm (identical noise
// stream and result), and a mixed assignment runs each step under its own
// schedule, deterministically.
func TestMeasureStepsPerStepAlgos(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		dsl.Program{
			{Slice: 0, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
			{Slice: 0, Form: dsl.InsideGroup, Op: collective.AllGather},
		})
	sys := topology.A100System(4)
	sim := &Simulator{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}
	fixed := sim.Measure(lp)
	uniform := sim.MeasureSteps(lp, []cost.Algorithm{cost.Ring, cost.Ring})
	if uniform != fixed {
		t.Errorf("uniform Ring assignment = %v, want fixed-Ring %v (byte-identical)", uniform, fixed)
	}
	treeSim := &Simulator{Sys: sys, Algo: cost.Tree, Bytes: cost.PayloadBytes(4)}
	uniformTree := sim.MeasureSteps(lp, []cost.Algorithm{cost.Tree, cost.Tree})
	if want := treeSim.Measure(lp); uniformTree != want {
		t.Errorf("uniform Tree assignment = %v, want fixed-Tree %v", uniformTree, want)
	}
	mixed := sim.MeasureSteps(lp, []cost.Algorithm{cost.Ring, cost.Tree})
	if mixed <= 0 {
		t.Fatalf("mixed assignment measured %v", mixed)
	}
	if again := sim.MeasureSteps(lp, []cost.Algorithm{cost.Ring, cost.Tree}); again != mixed {
		t.Errorf("mixed assignment nondeterministic: %v vs %v", again, mixed)
	}
}

// TestFusionRespectsStepAlgos: consecutive AllReduces fuse only when
// their assigned algorithms agree.
func TestFusionRespectsStepAlgos(t *testing.T) {
	steps := []lower.Step{
		{Op: collective.AllReduce, Groups: [][]int{{0, 1}, {2, 3}}, Rows: 1, RowsOut: 1, K: 1},
		{Op: collective.AllReduce, Groups: [][]int{{0, 2}, {1, 3}}, Rows: 1, RowsOut: 1, K: 1},
	}
	same, sameAlgos := fuseStepsAlgos(nil, nil, steps, []cost.Algorithm{cost.Ring, cost.Ring})
	if len(same) != 1 || len(sameAlgos) != 1 {
		t.Errorf("same-algo AllReduces should fuse: got %d steps", len(same))
	}
	diff, diffAlgos := fuseStepsAlgos(nil, nil, steps, []cost.Algorithm{cost.Ring, cost.Tree})
	if len(diff) != 2 || len(diffAlgos) != 2 {
		t.Errorf("different-algo AllReduces must not fuse: got %d steps", len(diff))
	}
	plain, nilAlgos := fuseStepsAlgos(nil, nil, steps, nil)
	if len(plain) != 1 || nilAlgos != nil {
		t.Errorf("nil assignment should fuse as before: got %d steps", len(plain))
	}
}
