package p2

import (
	"testing"

	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/verify"
)

// TestSuperPodThreeLevelPipeline exercises the whole pipeline on a
// three-level hierarchy (pods × nodes × GPUs): placements enumerate over
// three columns, synthesis sees up-to-three-level universes, lowering and
// both simulators handle the deeper topology, and the concrete-data
// executor confirms correctness.
func TestSuperPodThreeLevelPipeline(t *testing.T) {
	sys := SuperPodSystem(2, 2) // 32 GPUs
	axes := []int{8, 4}

	ms, err := Placements(sys, axes)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) < 4 {
		t.Fatalf("only %d placements for a 3-level hierarchy", len(ms))
	}

	plan, err := Plan(sys, Request{Axes: axes, ReduceAxes: []int{0}, Bytes: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	best := plan.Best()
	if best.Predicted <= 0 {
		t.Fatal("non-positive prediction")
	}
	// The best placement should keep the reduction axis as local as
	// possible: its matrix assigns all 8 reduced shards within one node.
	if got := best.Matrix.X[0][2]; got != 8 {
		t.Errorf("best placement splits the reduction axis above the node level: %v", best.Matrix)
	}
	if best.Measure() <= 0 {
		t.Error("non-positive measurement")
	}

	// Concrete-data verification over the best placement's programs.
	m := best.Matrix
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := synth.Synthesize(h, synth.Options{})
	for _, p := range res.Programs {
		lp, err := lower.Lower(p, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Check(lp, m, []int{0}, 2); err != nil {
			t.Errorf("program %v: %v", p, err)
		}
	}
}

// TestCrossPodPlacementImpact verifies that the placement story holds on
// the deeper hierarchy: reductions confined to nodes beat pod-spanning and
// cluster-spanning placements by orders of magnitude.
func TestCrossPodPlacementImpact(t *testing.T) {
	sys := SuperPodSystem(2, 2)
	axes := []int{8, 4}
	plan, err := Plan(sys, Request{Axes: axes, ReduceAxes: []int{0}, Bytes: 4e9})
	if err != nil {
		t.Fatal(err)
	}
	byMatrix := map[string]float64{}
	base := synth.BaselineAllReduce().String()
	for _, s := range plan.Strategies {
		if s.Program.String() == base {
			byMatrix[s.Matrix.String()] = s.Predicted
		}
	}
	local, okL := byMatrix["[[1 1 8] [2 2 1]]"]
	spanning, okS := byMatrix["[[2 2 2] [1 1 4]]"]
	if !okL || !okS {
		t.Fatalf("expected matrices missing: %v", byMatrix)
	}
	if spanning/local < 10 {
		t.Errorf("cross-pod AllReduce only %.1f× slower than local", spanning/local)
	}
}

// TestPlacementDeviceBijectionAcrossThreeLevels property-checks the
// device↔axis bijection on a 3-level matrix.
func TestPlacementDeviceBijectionAcrossThreeLevels(t *testing.T) {
	m, err := placement.NewMatrix([]int{2, 2, 8}, []int{8, 4},
		[][]int{{2, 1, 4}, {1, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for dev := 0; dev < m.NumDevices(); dev++ {
		if back := m.Device(m.AxisCoords(dev)); back != dev {
			t.Fatalf("bijection broken at device %d", dev)
		}
	}
}
