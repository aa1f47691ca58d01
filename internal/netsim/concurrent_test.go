package netsim

import (
	"math"
	"testing"

	"p2/internal/collective"
	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/lower"
	"p2/internal/synth"
	"p2/internal/topology"
)

func TestConcurrentSingleMatchesMeasure(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	sim := &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}
	want := sim.Measure(lp)
	got := sim.MeasureConcurrent([]*lower.Program{lp})
	if len(got) != 1 {
		t.Fatalf("results = %d", len(got))
	}
	if got[0] != want {
		t.Errorf("MeasureConcurrent single = %v, Measure = %v (must be bitwise equal)", got[0], want)
	}
}

func TestConcurrentContention(t *testing.T) {
	// Two cross-node reductions sharing the NICs must each take longer
	// than in isolation, and at most about the sum.
	lpA := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	lpB := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0}, rsArAg)
	sim := &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true}}
	soloA := sim.Measure(lpA)
	soloB := sim.Measure(lpB)
	both := sim.MeasureConcurrent([]*lower.Program{lpA, lpB})
	for i, v := range both {
		if v <= 0 {
			t.Fatalf("lane %d time %v", i, v)
		}
	}
	if both[0] <= soloA || both[1] <= soloB {
		t.Errorf("no contention: both=%v solo=(%v, %v)", both, soloA, soloB)
	}
	if both[0] > soloA+soloB+1 || both[1] > soloA+soloB+1 {
		t.Errorf("over-serialized: both=%v solo=(%v, %v)", both, soloA, soloB)
	}
}

func TestConcurrentWorkConserving(t *testing.T) {
	// Fair sharing is work-conserving: two identical single-step
	// reductions sharing every link finish in about twice the solo time.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{4, 1}, {1, 16}}, []int{0},
		synth.BaselineAllReduce())
	sim := &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true}}
	solo := sim.Measure(lp)
	both := sim.MeasureConcurrent([]*lower.Program{lp, lp})
	for _, v := range both {
		if v < 1.8*solo || v > 2.2*solo {
			t.Errorf("shared run %v, want ≈ 2×%v", v, solo)
		}
	}
}

func TestConcurrentEmpty(t *testing.T) {
	sim := &Simulator{Sys: topology.A100System(2), Algo: cost.Ring, Bytes: 1e9}
	if got := sim.MeasureConcurrent(nil); got != nil {
		t.Errorf("MeasureConcurrent(nil) = %v", got)
	}
}

// TestConcurrentMixedLiveDownLanes: when lanes share a fabric with a down
// NIC, only the lanes whose traffic crosses it stall to +Inf — a lane
// confined to live links must still finish in finite time, in either
// spec order (stalled transfers stay out of the live set, so they never
// block the event loop or hog a live link's share).
func TestConcurrentMixedLiveDownLanes(t *testing.T) {
	// crossNode reduces over an axis spanning 2 nodes, so its ring crosses
	// the NICs; intraNode reduces over 4 GPUs of a single node and never
	// leaves the NVSwitch level.
	crossNode := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	intraNode := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	down := withFaults(t, topology.A100System(4), "0:2:down")
	sim := &Simulator{Sys: down, Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true}}
	solo := sim.MeasureConcurrent([]*lower.Program{intraNode})[0]
	if math.IsInf(solo, 1) || solo <= 0 {
		t.Fatalf("intra-node lane alone = %v, want finite and positive", solo)
	}
	a := sim.MeasureConcurrent([]*lower.Program{crossNode, intraNode})
	b := sim.MeasureConcurrent([]*lower.Program{intraNode, crossNode})
	for _, tc := range []struct {
		name       string
		down, live float64
	}{
		{"down-first", a[0], a[1]},
		{"live-first", b[1], b[0]},
	} {
		if !math.IsInf(tc.down, 1) {
			t.Errorf("%s: cross-node lane over a down NIC = %v, want +Inf", tc.name, tc.down)
		}
		if math.IsInf(tc.live, 1) || tc.live <= 0 {
			t.Errorf("%s: intra-node lane = %v, want finite and positive", tc.name, tc.live)
		}
		if tc.live < solo {
			t.Errorf("%s: intra-node lane finished in %v, faster than its solo run %v", tc.name, tc.live, solo)
		}
	}
	// With noise disabled the outcome cannot depend on lane order.
	if a[0] != b[1] || a[1] != b[0] {
		t.Errorf("lane order changed the result: %v vs swapped %v", a, b)
	}
}

func TestConcurrentDeterministic(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	sim := &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}
	a := sim.MeasureConcurrent([]*lower.Program{lp, lp})
	b := sim.MeasureConcurrent([]*lower.Program{lp, lp})
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

// TestConcurrentRecorder: the Recorder sees every completed transfer of
// every lane (it used to be silently ignored with two or more lanes), and
// End never decreases within a lane. The two lanes run different ops, so
// an event's Op names its lane.
func TestConcurrentRecorder(t *testing.T) {
	rows := [][]int{{2, 2}, {2, 8}}
	lpA := lowerFor(t, []int{4, 16}, []int{4, 16}, rows, []int{0}, synth.BaselineAllReduce())
	lpB := lowerFor(t, []int{4, 16}, []int{4, 16}, rows, []int{0}, dsl.Program{
		{Slice: 0, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
		{Slice: 0, Form: dsl.InsideGroup, Op: collective.AllGather},
	})
	sys := topology.A100System(4)
	want := 0
	for _, lp := range []*lower.Program{lpA, lpB} {
		for _, st := range lp.Steps {
			for _, g := range st.Groups {
				_, rounds := scheduleRounds(sys, st.Op, g, 1, cost.Ring, nil, nil)
				for _, round := range rounds {
					want += round.hi - round.lo
				}
			}
		}
	}
	var events []Event
	sim := &Simulator{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts:     Options{DisableNoise: true},
		Recorder: func(ev Event) { events = append(events, ev) }}
	sim.MeasureConcurrent([]*lower.Program{lpA, lpB})
	if len(events) != want {
		t.Fatalf("recorder saw %d events, want %d (every transfer of both lanes)", len(events), want)
	}
	var lastEnd [2]float64
	var lastStep [2]int
	for _, ev := range events {
		li := 1
		if ev.Op == collective.AllReduce {
			li = 0
		}
		if ev.End < lastEnd[li] || ev.Step < lastStep[li] || ev.Start > ev.End {
			t.Fatalf("lane %d: event %+v after End %v step %d", li, ev, lastEnd[li], lastStep[li])
		}
		lastEnd[li], lastStep[li] = ev.End, ev.Step
	}
}

// TestConcurrentLaneSymmetry: with noise off the loop treats lanes
// symmetrically — k identical lanes finish at the identical instant, and
// permuting the specs permutes the results exactly.
func TestConcurrentLaneSymmetry(t *testing.T) {
	rows := [][]int{{2, 2}, {2, 8}}
	lpA := lowerFor(t, []int{4, 16}, []int{4, 16}, rows, []int{0}, synth.BaselineAllReduce())
	lpB := lowerFor(t, []int{4, 16}, []int{4, 16}, rows, []int{0}, rsArAg)
	lpC := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	sim := &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true}}
	same := sim.MeasureConcurrent([]*lower.Program{lpB, lpB, lpB})
	if same[0] != same[1] || same[1] != same[2] {
		t.Errorf("identical lanes finished apart: %v", same)
	}
	progs := []*lower.Program{lpA, lpB, lpC}
	base := sim.MeasureConcurrent(progs)
	for _, perm := range [][]int{{1, 0, 2}, {2, 1, 0}, {1, 2, 0}} {
		got := sim.MeasureConcurrent([]*lower.Program{progs[perm[0]], progs[perm[1]], progs[perm[2]]})
		for i, from := range perm {
			if got[i] != base[from] {
				t.Errorf("perm %v: lane %d = %v, want %v (bitwise)", perm, i, got[i], base[from])
			}
		}
	}
}
