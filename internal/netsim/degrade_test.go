package netsim

import (
	"math"
	"testing"

	"p2/internal/cost"
	"p2/internal/synth"
	"p2/internal/topology"
)

// TestConcurrentSpecDefaultsMatchMeasureSteps is the spec-normalisation
// table: a lone spec that inherits every default (payload, algorithm,
// per-step assignment) must produce the exact float MeasureSteps produces,
// for every way of spelling the same assignment. A NaN payload inherits the
// simulator's like a non-positive one (it used to slip past a `<= 0` guard
// and deadlock the event loop).
func TestConcurrentSpecDefaultsMatchMeasureSteps(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	sim := &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true}}
	uniform := make([]cost.Algorithm, len(lp.Steps))
	for i := range uniform {
		uniform[i] = cost.Ring
	}
	want := sim.MeasureSteps(lp, nil)
	specs := map[string]ConcurrentSpec{
		"zero value":        {Program: lp},
		"explicit payload":  {Program: lp, Bytes: sim.Bytes},
		"NaN payload":       {Program: lp, Bytes: math.NaN()},
		"explicit algo":     {Program: lp, Algo: cost.Ring, HasAlgo: true},
		"uniform stepAlgos": {Program: lp, StepAlgos: uniform},
	}
	for name, spec := range specs {
		if got := sim.MeasureConcurrentSpecs([]ConcurrentSpec{spec})[0]; got != want {
			t.Errorf("%s: MeasureConcurrentSpecs = %v, MeasureSteps = %v (must be bitwise equal)",
				name, got, want)
		}
	}
}

// TestMeasureDownLinkStalls: a transfer whose path crosses a down link can
// never finish — the emulator must report +Inf rather than spin or panic,
// with one lane and with several.
func TestMeasureDownLinkStalls(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	down := topology.A100System(4).MustWithOverrides(topology.Down(0, 2))
	sim := &Simulator{Sys: down, Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Opts: Options{DisableNoise: true}}
	if got := sim.Measure(lp); !math.IsInf(got, 1) {
		t.Errorf("Measure over a down NIC = %v, want +Inf", got)
	}
	got := sim.MeasureConcurrentSpecs([]ConcurrentSpec{{Program: lp}, {Program: lp}})
	for i, v := range got {
		if !math.IsInf(v, 1) {
			t.Errorf("concurrent lane %d over a down NIC = %v, want +Inf", i, v)
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
	slow := &Simulator{Sys: pristine.MustWithOverrides(topology.Throttle(0, 1, 10)),
		Algo: cost.Ring, Bytes: cost.PayloadBytes(4), Opts: Options{DisableNoise: true}}
	degraded := slow.Measure(lp)
	if !(degraded > base) {
		t.Errorf("throttled NIC: measured %v, pristine %v — expected a slowdown", degraded, base)
	}
	if again := sim.Measure(lp); again != base {
		t.Errorf("pristine measurement changed after degraded run: %v vs %v", again, base)
	}
}
