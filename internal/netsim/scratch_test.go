package netsim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"p2/internal/collective"
	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/lower"
	"p2/internal/synth"
	"p2/internal/topology"
)

// pollCancel is a context that reports cancellation from its (n+1)-th Err
// call on: the event loop polls once every 64 iterations, so the run is
// abandoned at a fixed iteration and the cancelled result is as
// deterministic as a complete one. One measurement owns it.
type pollCancel struct {
	context.Context
	left int
}

func (c *pollCancel) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// scratchCase is one measurement whose output — every lane's Float64bits,
// then the Recorder's event count and a digest of every field of every
// event — must not depend on what the emulator measured before it.
type scratchCase struct {
	name string
	run  func() []uint64
}

// eventDigest counts a Recorder's events and folds every field of every
// event, in stream order, into an FNV-1a hash.
type eventDigest struct{ n, h uint64 }

func newEventDigest() *eventDigest { return &eventDigest{h: 14695981039346656037} }

func (d *eventDigest) add(ev Event) {
	mix := func(v uint64) { d.h = (d.h ^ v) * 1099511628211 }
	d.n++
	for _, v := range []int{ev.Step, ev.Group, int(ev.Op), ev.Src, ev.Dst} {
		mix(uint64(v))
	}
	for _, v := range []float64{ev.Bytes, ev.Start, ev.End} {
		mix(math.Float64bits(v))
	}
}

// recorded runs measure on sim with a Recorder attached and returns the
// results' bits followed by the event stream's count and FNV digest.
func recorded(sim Simulator, measure func(*Simulator) []float64) []uint64 {
	d := newEventDigest()
	sim.Recorder = d.add
	var out []uint64
	for _, v := range measure(&sim) {
		out = append(out, math.Float64bits(v))
	}
	return append(out, d.n, d.h)
}

func scratchCases(t *testing.T) []scratchCase {
	a100 := []int{4, 16}
	rows := [][]int{{2, 2}, {2, 8}}
	ring := lowerFor(t, a100, a100, rows, []int{0}, rsArAg)
	allReduce := lowerFor(t, a100, a100, rows, []int{0}, synth.BaselineAllReduce())
	v100 := lowerFor(t, []int{4, 8}, []int{8, 4}, [][]int{{1, 8}, {4, 1}}, []int{0}, synth.BaselineAllReduce())
	residual := lowerFor(t, []int{3, 4, 8}, []int{12, 8}, [][]int{{3, 4, 1}, {1, 1, 8}}, []int{0}, synth.BaselineAllReduce())
	a100x4, pod := topology.A100System(4), topology.SuperPodSystem(3, 4)
	one := func(sim Simulator, lp *lower.Program) func() []uint64 {
		return func() []uint64 {
			return recorded(sim, func(s *Simulator) []float64 { return []float64{s.Measure(lp)} })
		}
	}
	return []scratchCase{
		{"a100:4 ring", one(Simulator{Sys: a100x4, Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}, ring)},
		{"v100:4 cross-domain", one(Simulator{Sys: topology.V100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}, v100)},
		{"superpod:3x4 residual hd", one(Simulator{Sys: pod, Algo: cost.HalvingDoubling, Bytes: cost.PayloadBytes(3)}, residual)},
		{"two lanes", func() []uint64 {
			sim := Simulator{Sys: a100x4, Algo: cost.Ring, Bytes: cost.PayloadBytes(4), Opts: Options{Seed: 3}}
			return recorded(sim, func(s *Simulator) []float64 {
				return s.MeasureConcurrentSpecs([]ConcurrentSpec{
					{Program: allReduce, Bytes: 1 << 28},
					{Program: ring, Bytes: 1 << 26, Algo: cost.HalvingDoubling},
				})
			})
		}},
		// The last two leave live transfers behind: a stalled lane and an
		// abandoned one.
		{"a100:4 down nic", one(Simulator{Sys: withFaults(t, a100x4, "0:2:down"), Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}, allReduce)},
		{"superpod:3x4 cancelled", func() []uint64 {
			sim := Simulator{Sys: pod, Algo: cost.HalvingDoubling, Bytes: cost.PayloadBytes(3),
				Ctx: &pollCancel{Context: context.Background(), left: 1}}
			return recorded(sim, func(s *Simulator) []float64 { return []float64{s.Measure(residual)} })
		}},
	}
}

// TestMeasureScratchReuse: measurements draw their working state from a
// shared pool, so each must come out of it as if fresh — including after a
// run that stalled behind a down link or was cancelled with transfers in
// flight. Several goroutines interleave every case in different orders and
// each result must equal the same call made alone, bit for bit.
func TestMeasureScratchReuse(t *testing.T) {
	cases := scratchCases(t)
	want := make([][]uint64, len(cases))
	for i, c := range cases {
		want[i] = c.run()
	}
	if got := want[len(want)-1][0]; !math.IsInf(math.Float64frombits(got), 1) {
		t.Fatalf("cancelled case measured %v, want +Inf", math.Float64frombits(got))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range 3 {
				for k := range cases {
					i := (k*(g+1) + it) % len(cases)
					if got := cases[i].run(); fmt.Sprint(got) != fmt.Sprint(want[i]) {
						t.Errorf("goroutine %d: %s = %x, alone %x", g, cases[i].name, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMeasureStepsAllocs: a warm measurement allocates a constant number
// of objects however many transfers the program makes — the result slice
// and nothing per step, group, round or transfer. The Tree pattern is left
// out: it keeps cost.TreeLinks' allocation of each group's tree.
func TestMeasureStepsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	a100 := []int{4, 16}
	rows := [][]int{{2, 2}, {2, 8}}
	chain := dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.Reduce},
		{Slice: 1, Form: dsl.Master, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.Broadcast},
	}
	for _, r := range []struct {
		name string
		sim  *Simulator
		lp   *lower.Program
	}{
		{"a100:4 rs-ar-ag ring", &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4)},
			lowerFor(t, a100, a100, rows, []int{0}, rsArAg)},
		{"superpod:3x4 residual hd", &Simulator{Sys: topology.SuperPodSystem(3, 4), Algo: cost.HalvingDoubling, Bytes: cost.PayloadBytes(3)},
			lowerFor(t, []int{3, 4, 8}, []int{12, 8}, [][]int{{3, 4, 1}, {1, 1, 8}}, []int{0}, synth.BaselineAllReduce())},
		{"a100:4 r-ar-b chain", &Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4)},
			lowerFor(t, a100, a100, rows, []int{0}, chain)},
	} {
		r.sim.MeasureSteps(r.lp, nil)
		if allocs := testing.AllocsPerRun(20, func() { r.sim.MeasureSteps(r.lp, nil) }); allocs > 2 {
			t.Errorf("%s: %v allocations per warm MeasureSteps, want <= 2", r.name, allocs)
		}
	}
}
