package netsim

import (
	"math"
	"reflect"
	"testing"

	"p2/internal/collective"
	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/topology"
)

// rsArAg is the hierarchical ReduceScatter–AllReduce–AllGather program
// over a two-level reduction hierarchy.
var rsArAg = dsl.Program{
	{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
	{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
	{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllGather},
}

func lowerFor(t *testing.T, hier, axes []int, rows [][]int, red []int, p dsl.Program) *lower.Program {
	t.Helper()
	m, err := placement.NewMatrix(hier, axes, rows)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red, hierarchy.Options{Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lower.Lower(p, h)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

func quietSim(sys *topology.System, algo cost.Algorithm, bytes float64) *Simulator {
	return &Simulator{Sys: sys, Algo: algo, Bytes: bytes,
		Opts: Options{DisableNoise: true, DisableLaunchOverhead: true}}
}

func TestMeasureMatchesAnalyticWithinNode(t *testing.T) {
	// With noise and overheads off, the emulator and the analytic model
	// should agree closely on an uncontended within-node AllReduce.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	sim := quietSim(sys, cost.Ring, cost.PayloadBytes(4))
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}
	got := sim.Measure(lp)
	want := model.ProgramTime(lp)
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("emulated %v vs analytic %v (>10%% apart)", got, want)
	}
}

func TestCrossNodeContention(t *testing.T) {
	// 16 cross-node groups share each node's NIC; the emulator must show
	// the same ~50 s magnitude the analytic model (and the paper) shows.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{4, 1}, {1, 16}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	sim := quietSim(sys, cost.Ring, cost.PayloadBytes(4))
	got := sim.Measure(lp)
	if got < 30 || got > 90 {
		t.Errorf("cross-node AllReduce = %v s, want tens of seconds", got)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	sim := &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}
	a := sim.Measure(lp)
	b := sim.Measure(lp)
	if a != b {
		t.Errorf("nondeterministic measurement: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Errorf("non-positive measurement %v", a)
	}
}

func TestNoiseIsBoundedAndSeedDependent(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	quiet := quietSim(sys, cost.Ring, cost.PayloadBytes(4)).Measure(lp)
	noisy := (&Simulator{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{LaunchOverhead: 1e-12}}).Measure(lp)
	if noisy < quiet {
		t.Errorf("noise made the run faster: %v < %v", noisy, quiet)
	}
	if noisy > quiet*1.10 {
		t.Errorf("noise exceeded its bound: %v vs %v", noisy, quiet)
	}
	other := (&Simulator{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{Seed: 12345, LaunchOverhead: 1e-12}}).Measure(lp)
	if other == noisy {
		t.Error("different seeds produced identical measurements")
	}
}

func TestLaunchOverheadPerStep(t *testing.T) {
	one := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	three := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		dsl.Program{
			{Slice: 0, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
			{Slice: 0, Form: dsl.InsideGroup, Op: collective.AllGather},
		})
	sim := &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: 1,
		Opts: Options{DisableNoise: true, LaunchOverhead: 1.0}}
	t1 := sim.Measure(one)
	t2 := sim.Measure(three)
	if t1 < 1.0 || t1 > 1.1 {
		t.Errorf("one-step overhead = %v, want ≈ 1", t1)
	}
	if t2 < 2.0 || t2 > 2.1 {
		t.Errorf("two-step overhead = %v, want ≈ 2", t2)
	}
}

func TestFuseAllReduces(t *testing.T) {
	// Two consecutive AllReduces — pairs {0,1},{2,3} then {0,2},{1,3} —
	// fuse into one AllReduce over {0,1,2,3}.
	steps := []lower.Step{
		{Op: collective.AllReduce, Groups: [][]int{{0, 1}, {2, 3}}, Rows: 4, RowsOut: 4, K: 4},
		{Op: collective.AllReduce, Groups: [][]int{{0, 2}, {1, 3}}, Rows: 4, RowsOut: 4, K: 4},
	}
	fused, _ := fuseStepsAlgos(steps, nil)
	if len(fused) != 1 {
		t.Fatalf("fused into %d steps, want 1", len(fused))
	}
	if !reflect.DeepEqual(fused[0].Groups, [][]int{{0, 1, 2, 3}}) {
		t.Errorf("fused groups = %v", fused[0].Groups)
	}
}

func TestFuseKeepsDisjointComponents(t *testing.T) {
	steps := []lower.Step{
		{Op: collective.AllReduce, Groups: [][]int{{0, 1}, {4, 5}}, Rows: 4, RowsOut: 4, K: 4},
		{Op: collective.AllReduce, Groups: [][]int{{2, 3}, {6, 7}}, Rows: 4, RowsOut: 4, K: 4},
	}
	fused, _ := fuseStepsAlgos(steps, nil)
	if len(fused) != 1 {
		t.Fatalf("fused into %d steps, want 1", len(fused))
	}
	want := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	if !reflect.DeepEqual(fused[0].Groups, want) {
		t.Errorf("fused groups = %v, want %v", fused[0].Groups, want)
	}
}

func TestFuseDoesNotTouchOtherOps(t *testing.T) {
	steps := []lower.Step{
		{Op: collective.ReduceScatter, Groups: [][]int{{0, 1}}, Rows: 4, RowsOut: 2, K: 4},
		{Op: collective.AllReduce, Groups: [][]int{{0, 2}}, Rows: 2, RowsOut: 2, K: 4},
		{Op: collective.AllGather, Groups: [][]int{{0, 1}}, Rows: 2, RowsOut: 4, K: 4},
	}
	fused, _ := fuseStepsAlgos(steps, nil)
	if len(fused) != 3 {
		t.Errorf("non-AllReduce steps were fused: %d", len(fused))
	}
}

func TestFusionMakesTwoStepAllReduceFast(t *testing.T) {
	// The paper's observation: a 2-step AllReduce program is measured as
	// fast as the 1-step program because XLA fuses it, while the analytic
	// model predicts it slower.
	rows := [][]int{{2, 2}, {2, 8}}
	twoStep := lowerFor(t, []int{4, 16}, []int{4, 16}, rows, []int{0}, dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
	})
	oneStep := lowerFor(t, []int{4, 16}, []int{4, 16}, rows, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	sim := quietSim(sys, cost.Ring, cost.PayloadBytes(4))
	tTwo := sim.Measure(twoStep)
	tOne := sim.Measure(oneStep)
	if math.Abs(tTwo-tOne)/tOne > 0.05 {
		t.Errorf("fused 2-step (%v) should match 1-step (%v)", tTwo, tOne)
	}
	noFuse := &Simulator{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true, LaunchOverhead: 1e-12, DisableFusion: true}}
	if noFuse.Measure(twoStep) <= tOne*1.05 {
		t.Error("without fusion the 2-step program should be slower")
	}
}

func TestV100CrossDomainSlowdown(t *testing.T) {
	// A within-node AllReduce whose ring crosses PCIe domains must be
	// slower with cross-domain modelling than without — the effect that
	// costs the analytic model V100 accuracy (§5).
	lp := lowerFor(t, []int{4, 8}, []int{8, 4}, [][]int{{1, 8}, {4, 1}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.V100System(4)
	with := quietSim(sys, cost.Ring, cost.PayloadBytes(4))
	without := &Simulator{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true, LaunchOverhead: 1e-12, DisableCrossDomain: true}}
	tw := with.Measure(lp)
	two := without.Measure(lp)
	if tw <= two {
		t.Errorf("cross-domain modelling did not slow the run: %v vs %v", tw, two)
	}
}

func TestRSARAGBeatsAllReduceCrossNode(t *testing.T) {
	// Result 5 on the emulator: the hierarchical program wins cross-node.
	rows := [][]int{{2, 2}, {2, 8}}
	baseline := lowerFor(t, []int{4, 16}, []int{4, 16}, rows, []int{0},
		synth.BaselineAllReduce())
	rsarag := lowerFor(t, []int{4, 16}, []int{4, 16}, rows, []int{0}, rsArAg)
	sim := quietSim(topology.A100System(4), cost.Ring, cost.PayloadBytes(4))
	tBase := sim.Measure(baseline)
	tOpt := sim.Measure(rsarag)
	speedup := tBase / tOpt
	if speedup < 1.2 {
		t.Errorf("RS-AR-AG speedup = %.2f, want > 1.2", speedup)
	}
}

func TestTreeAlgorithm(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	ring := quietSim(sys, cost.Ring, cost.PayloadBytes(4)).Measure(lp)
	tree := quietSim(sys, cost.Tree, cost.PayloadBytes(4)).Measure(lp)
	if tree <= ring {
		t.Errorf("within-node tree (%v) should be slower than ring (%v)", tree, ring)
	}
}

func TestAllOpsRunOnEmulator(t *testing.T) {
	m := placement.MustMatrix([]int{2, 16}, []int{4, 8}, [][]int{{2, 2}, {1, 8}})
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := synth.Synthesize(h, synth.Options{})
	sim := quietSim(topology.A100System(2), cost.Ring, 1e8)
	for _, p := range res.Programs {
		lp, err := lower.Lower(p, h)
		if err != nil {
			t.Fatal(err)
		}
		v := sim.Measure(lp)
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%v: measured %v", p, v)
		}
	}
}

func TestDeviceCountMismatchPanics(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	sim := quietSim(topology.A100System(2), cost.Ring, 1e8)
	defer func() {
		if recover() == nil {
			t.Error("mismatched device count did not panic")
		}
	}()
	sim.Measure(lp)
}

func TestHalvingDoublingOnEmulator(t *testing.T) {
	// The emulator's HD rounds must mirror the analytic model: a mixed
	// local/remote group beats ring, and totals stay within 15% of the
	// analytic prediction with noise disabled.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	ringT := quietSim(sys, cost.Ring, cost.PayloadBytes(4)).Measure(lp)
	hdT := quietSim(sys, cost.HalvingDoubling, cost.PayloadBytes(4)).Measure(lp)
	if hdT >= ringT {
		t.Errorf("HD (%v) should beat ring (%v) on mixed groups", hdT, ringT)
	}
	model := &cost.Model{Sys: sys, Algo: cost.HalvingDoubling, Bytes: cost.PayloadBytes(4)}
	pred := model.ProgramTime(lp)
	if math.Abs(hdT-pred)/pred > 0.15 {
		t.Errorf("emulated HD %v vs analytic %v (>15%% apart)", hdT, pred)
	}
}
