package cost

import (
	"fmt"
	"math"
	"testing"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/topology"
)

// lowerForMatrix lowers a program for an already-built matrix.
func lowerForMatrix(t *testing.T, m *placement.Matrix, red []int, p dsl.Program) *lower.Program {
	t.Helper()
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lower.Lower(p, h)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

func TestHalvingDoublingWithinNodeMatchesRingBandwidth(t *testing.T) {
	// HD and ring are both bandwidth-optimal: within one node (uniform
	// bandwidth), the total traffic per device uplink is identical —
	// 2·(g-1)/g·D in and out. Times should agree closely.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	ring := &Model{Sys: sys, Algo: Ring, Bytes: PayloadBytes(4)}
	hd := &Model{Sys: sys, Algo: HalvingDoubling, Bytes: PayloadBytes(4)}
	r, h := ring.ProgramTime(lp), hd.ProgramTime(lp)
	if h < r*0.9 || h > r*1.1 {
		t.Errorf("HD within node = %v, ring = %v; want within 10%%", h, r)
	}
}

func TestHalvingDoublingAllRemoteMatchesRing(t *testing.T) {
	// For a group with one member per node, every HD exchange crosses the
	// NIC and the total bytes equal the ring's (both are
	// bandwidth-optimal), so large-payload times differ only by the
	// latency term (HD has fewer rounds).
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{4, 1}, {1, 16}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	ring := &Model{Sys: sys, Algo: Ring, Bytes: PayloadBytes(4)}
	hd := &Model{Sys: sys, Algo: HalvingDoubling, Bytes: PayloadBytes(4)}
	h, r := hd.ProgramTime(lp), ring.ProgramTime(lp)
	if h > r {
		t.Errorf("HD all-remote (%v) should not exceed ring (%v)", h, r)
	}
	if h < r*0.99 {
		t.Errorf("HD all-remote (%v) should be within 1%% of ring (%v)", h, r)
	}
}

func TestHalvingDoublingExploitsLocality(t *testing.T) {
	// For a mixed local/remote group ([[2 2] [2 8]]: 2 GPUs per node in
	// each group), HD's early small exchanges stay local and only D/4
	// halves cross the NIC — like the synthesized hierarchical programs,
	// it beats the hierarchy-oblivious ring.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	ring := &Model{Sys: sys, Algo: Ring, Bytes: PayloadBytes(4)}
	hd := &Model{Sys: sys, Algo: HalvingDoubling, Bytes: PayloadBytes(4)}
	h, r := hd.ProgramTime(lp), ring.ProgramTime(lp)
	if h >= r*0.9 {
		t.Errorf("HD mixed-group (%v) should clearly beat ring (%v)", h, r)
	}
}

func TestHalvingDoublingWinsLatencyBound(t *testing.T) {
	// With a tiny payload the latency term dominates: HD has 2·log2(g)
	// rounds vs ring's 2(g-1).
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{4, 1}, {1, 16}}, []int{0},
		synth.BaselineAllReduce())
	sys := topology.A100System(4)
	ring := &Model{Sys: sys, Algo: Ring, Bytes: 64}
	hd := &Model{Sys: sys, Algo: HalvingDoubling, Bytes: 64}
	if h, r := hd.ProgramTime(lp), ring.ProgramTime(lp); h >= r {
		t.Errorf("HD latency-bound (%v) should beat ring (%v)", h, r)
	}
}

// oddSystem is an n-node × gpus-per-node two-level testbed for the
// residual (non-power-of-two) halving-doubling paths.
func oddSystem(t testing.TB, nodes, gpus int) *topology.System {
	t.Helper()
	sys, err := topology.New(fmt.Sprintf("odd-%dx%d", nodes, gpus),
		[]topology.Level{{Name: "node", Count: nodes}, {Name: "gpu", Count: gpus}},
		[]topology.Link{
			{Name: "NIC", Bandwidth: 8e9, Latency: 2e-5},
			{Name: "NVL", Bandwidth: 200e9, Latency: 2e-6},
		})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestHalvingDoublingResidualSchedule pins the residual variant's exact
// analytic cost on a 3-wide all-remote group: the partner node's uplink
// carries the fold + unfold (2D) plus the 2-wide core exchange (2D) = 4D,
// and the step pays 2·⌈log2 3⌉ = 4 rounds of NIC latency. No ring
// arithmetic appears anywhere in the number.
func TestHalvingDoublingResidualSchedule(t *testing.T) {
	sys := oddSystem(t, 3, 4)
	m := placement.MustMatrix([]int{3, 4}, []int{3, 4}, [][]int{{3, 1}, {1, 4}})
	lp := lowerForMatrix(t, m, []int{0}, synth.BaselineAllReduce())
	d := 1e9
	hd := &Model{Sys: sys, Algo: HalvingDoubling, Bytes: d}
	got := hd.ProgramTime(lp)
	// 4 groups of 3 (one member per node): each node hosts the residual,
	// the partner or the other core member of 4 groups — the partner role
	// dominates with 4 × 4D through one 8 GB/s NIC.
	want := 4*4*d/8e9 + 4*2e-5
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("residual HD on 3-wide groups = %v, want %v", got, want)
	}
	// The residual schedule is NOT the ring fallback anymore: ring moves
	// 2·(n-1)/n·D per edge and must differ.
	ring := &Model{Sys: sys, Algo: Ring, Bytes: d}
	if r := ring.ProgramTime(lp); r == got {
		t.Errorf("non-pow2 HD (%v) still equals ring (%v) — fallback not removed", got, r)
	}
}

// TestHalvingDoublingResidualReducesCorrectVolume checks the bookkeeping
// of ScheduleOf's halving-doubling analytic view for every residual size
// the acceptance criteria name: the total scheduled volume must be r·2D for
// the fold/unfold pairs plus p·2D·(p-1)/p for the core phases, and the
// round count it reports for the latency term must cover the core rounds
// plus (for a residual) the fold and unfold rounds.
func TestHalvingDoublingResidualReducesCorrectVolume(t *testing.T) {
	const d = 1024.0
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 12, 16} {
		p := CorePow2(n)
		sch := ScheduleOf(collective.AllReduce, HalvingDoubling, n, d)
		edges := sch.edges(n)
		total := 0.0
		residual := 0.0
		for _, e := range edges {
			total += e.bytes
			if e.a >= p || e.b >= p {
				residual += e.bytes
			}
		}
		wantResidual := float64(n-p) * 2 * d
		wantCore := float64(p) * 2 * d * float64(p-1) / float64(p)
		if math.Abs(residual-wantResidual) > 1e-9 {
			t.Errorf("n=%d: residual volume %v, want %v", n, residual, wantResidual)
		}
		if math.Abs(total-(wantResidual+wantCore)) > 1e-9 {
			t.Errorf("n=%d: total volume %v, want %v", n, total, wantResidual+wantCore)
		}
		// The rounds value the model charges latency for, computed
		// independently: 2 per core halving level (halving + doubling
		// phases) plus the fold and unfold rounds when a residual exists.
		want := 0
		for q := 1; q < p; q *= 2 {
			want += 2
		}
		if p != n {
			want += 2
		}
		if sch.LatencyRounds != want {
			t.Errorf("n=%d: schedule charges %d rounds, want %d", n, sch.LatencyRounds, want)
		}
	}
}

// TestHalvingDoublingResidualBeatsRingLatencyBound: the point of the
// exact schedule — on latency-bound non-pow2 groups HD's 2⌈log2 n⌉
// rounds beat ring's 2(n-1), so the auto search can genuinely pick it.
func TestHalvingDoublingResidualBeatsRingLatencyBound(t *testing.T) {
	sys := oddSystem(t, 6, 4)
	m := placement.MustMatrix([]int{6, 4}, []int{6, 4}, [][]int{{6, 1}, {1, 4}})
	lp := lowerForMatrix(t, m, []int{0}, synth.BaselineAllReduce())
	ring := &Model{Sys: sys, Algo: Ring, Bytes: 64}
	hd := &Model{Sys: sys, Algo: HalvingDoubling, Bytes: 64}
	if h, r := hd.ProgramTime(lp), ring.ProgramTime(lp); h >= r {
		t.Errorf("latency-bound residual HD (%v) should beat ring (%v): 6 rounds vs 10", h, r)
	}
}

// TestAutoSearchPicksResidualHD: with the exact residual schedule in
// place, the per-step algorithm search genuinely selects HalvingDoubling
// on latency-bound non-pow2 groups (6 rounds vs ring's 10 on 6-wide
// all-remote groups) — under the old ring fallback HD could never beat
// ring there, so auto was blind to it.
func TestAutoSearchPicksResidualHD(t *testing.T) {
	sys := oddSystem(t, 6, 4)
	m := placement.MustMatrix([]int{6, 4}, []int{6, 4}, [][]int{{6, 1}, {1, 4}})
	lp := lowerForMatrix(t, m, []int{0}, synth.BaselineAllReduce())
	model := &Model{Sys: sys, Algo: Ring, Bytes: 64}
	assign, _ := model.BestStepAlgos(lp, ExtendedAlgorithms)
	for i, a := range assign {
		if a != HalvingDoubling {
			t.Errorf("step %d: auto chose %v, want HalvingDoubling on a latency-bound 6-wide group", i, a)
		}
	}
}

func TestParseHalvingDoubling(t *testing.T) {
	a, err := ParseAlgorithm("HalvingDoubling")
	if err != nil || a != HalvingDoubling {
		t.Errorf("ParseAlgorithm = %v, %v", a, err)
	}
	if HalvingDoubling.String() != "HalvingDoubling" {
		t.Error("String mismatch")
	}
	if len(ExtendedAlgorithms) != 3 {
		t.Error("ExtendedAlgorithms should have 3 entries")
	}
}
