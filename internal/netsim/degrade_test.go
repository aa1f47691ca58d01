package netsim

import (
	"math"
	"testing"

	"p2/internal/cost"
	"p2/internal/lower"
	"p2/internal/synth"
	"p2/internal/topology"
)

// TestConcurrentSpecMatchesMeasureSteps is the spec-normalisation table: a
// lone spec carrying the simulator's payload and algorithm must produce the
// exact float MeasureSteps produces, for every way of spelling the same
// per-step assignment.
func TestConcurrentSpecMatchesMeasureSteps(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	sim := &Simulator{Sys: topology.A100System(4), Algo: cost.Tree, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true}}
	uniform := make([]cost.Algorithm, len(lp.Steps))
	for i := range uniform {
		uniform[i] = cost.Tree
	}
	want := sim.MeasureSteps(lp, nil)
	specs := map[string]ConcurrentSpec{
		"fixed algo":        {Program: lp, Bytes: sim.Bytes, Algo: cost.Tree},
		"uniform stepAlgos": {Program: lp, Bytes: sim.Bytes, Algo: cost.Ring, StepAlgos: uniform},
	}
	for name, spec := range specs {
		if got := sim.MeasureConcurrentSpecs([]ConcurrentSpec{spec})[0]; got != want {
			t.Errorf("%s: MeasureConcurrentSpecs = %v, MeasureSteps = %v (must be bitwise equal)",
				name, got, want)
		}
	}
	if got := sim.MeasureConcurrent([]*lower.Program{lp})[0]; got != want {
		t.Errorf("MeasureConcurrent = %v, MeasureSteps = %v (must be bitwise equal)", got, want)
	}
}

// withFaults returns sys degraded by a fault spec in topology.ParseFaults's
// grammar.
func withFaults(t *testing.T, sys *topology.System, spec string) *topology.System {
	t.Helper()
	ovs, err := topology.ParseFaults(sys, spec)
	if err == nil {
		sys, err = sys.WithOverrides(ovs...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMeasureDownLinkStalls: a transfer whose path crosses a down link can
// never finish — the emulator must report +Inf rather than spin or panic,
// with one lane and with several.
func TestMeasureDownLinkStalls(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	down := withFaults(t, topology.A100System(4), "0:2:down")
	// At the subnormal payload every transfer rounds to 0 bytes; it still
	// stalls, and retiring it must not unload links it never loaded.
	for _, bytes := range []float64{cost.PayloadBytes(4), math.SmallestNonzeroFloat64} {
		sim := &Simulator{Sys: down, Algo: cost.Ring, Bytes: bytes, Opts: Options{DisableNoise: true}}
		if got := sim.Measure(lp); !math.IsInf(got, 1) {
			t.Errorf("%g B: Measure over a down NIC = %v, want +Inf", bytes, got)
		}
		got := sim.MeasureConcurrent([]*lower.Program{lp, lp})
		for i, v := range got {
			if !math.IsInf(v, 1) {
				t.Errorf("%g B: concurrent lane %d over a down NIC = %v, want +Inf", bytes, i, v)
			}
		}
	}
}

// TestMeasureThrottledLinkSlowsDown: degrading one NIC must strictly slow a
// cross-node reduction (the ring serializes through the slow hop), and the
// pristine system must be untouched by measuring on the degraded copy.
func TestMeasureThrottledLinkSlowsDown(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	pristine := topology.A100System(4)
	sim := &Simulator{Sys: pristine, Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true}}
	base := sim.Measure(lp)
	slow := &Simulator{Sys: withFaults(t, pristine, "0:1:bw/10"),
		Algo: cost.Ring, Bytes: cost.PayloadBytes(4), Opts: Options{DisableNoise: true}}
	degraded := slow.Measure(lp)
	if !(degraded > base) {
		t.Errorf("throttled NIC: measured %v, pristine %v — expected a slowdown", degraded, base)
	}
	if again := sim.Measure(lp); again != base {
		t.Errorf("pristine measurement changed after degraded run: %v vs %v", again, base)
	}
}

// TestMeasureInfiniteTimeNeverCompletes: a live transfer whose time to
// completion overflows to +Inf — an infinite jittered volume, a subnormal
// bandwidth, a noise fraction that overflows the volume — never finishes,
// like one behind a down link: its lane measures +Inf instead of the event
// loop panicking, and a lane beside it still finishes in finite time.
func TestMeasureInfiniteTimeNeverCompletes(t *testing.T) {
	hier, axes, rows := []int{2, 16}, []int{4, 8}, [][]int{{2, 2}, {1, 8}}
	lp := lowerFor(t, hier, axes, rows, []int{0}, synth.BaselineAllReduce())
	intraNode := lowerFor(t, hier, axes, [][]int{{1, 4}, {2, 4}}, []int{0}, synth.BaselineAllReduce())
	a100 := topology.A100System(2)
	payload := cost.PayloadBytes(2)
	for _, tc := range []struct {
		name  string
		sys   *topology.System
		bytes float64
		opts  Options
	}{
		{"max payload", a100, math.MaxFloat64, Options{}},
		{"subnormal bandwidth", withFaults(t, a100, "gpu:*:bw*1e-320"), payload, Options{}},
		{"noise overflow", a100, payload, Options{NoiseFrac: 1e300}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := &Simulator{Sys: tc.sys, Algo: cost.Tree, Bytes: tc.bytes, Opts: tc.opts}
			if got := sim.Measure(lp); !math.IsInf(got, 1) {
				t.Errorf("Measure = %v, want +Inf", got)
			}
		})
	}
	sim := &Simulator{Sys: a100, Algo: cost.Ring}
	got := sim.MeasureConcurrentSpecs([]ConcurrentSpec{
		{Program: lp, Bytes: math.MaxFloat64, Algo: cost.Tree},
		{Program: intraNode, Bytes: payload, Algo: cost.Ring},
	})
	if !math.IsInf(got[0], 1) || math.IsInf(got[1], 0) || !(got[1] > 0) {
		t.Errorf("infinite lane beside a finite one = %v, want [+Inf, finite > 0]", got)
	}
}
