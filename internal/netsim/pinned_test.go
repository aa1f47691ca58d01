package netsim

import (
	"math"
	"testing"

	"p2/internal/collective"
	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/synth"
	"p2/internal/topology"
)

// TestMeasurePinnedBits pins the emulator's absolute output bit for bit:
// Float64bits of MeasureSteps, the Recorder's event count and the
// Start/End bits of its first and last event. The values were recorded on
// the two-loop emulator (commit ee02559) immediately before runStep was
// folded into the lane loop, so they are the proof that the one-lane case
// of that loop performs the old float arithmetic operation for operation
// (the Reduce/Broadcast-under-Ring row, the reversed chain, was recorded at
// ba1bf46, immediately before scheduleRounds became an unrolling of
// cost.ScheduleOf). Nothing else pins absolute emulator output beyond the bench goldens'
// nine digits, and there is no second loop left to compare against — a
// deliberate change to the emulator's arithmetic re-records this table.
func TestMeasurePinnedBits(t *testing.T) {
	rArB := dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.Reduce},
		{Slice: 1, Form: dsl.Master, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.Broadcast},
	}
	arAr := dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
	}
	allReduce := synth.BaselineAllReduce()
	a100x4 := topology.A100System(4)
	noFuseSeed7 := Options{DisableFusion: true, Seed: 7}
	quiet := Options{DisableNoise: true, DisableLaunchOverhead: true}
	const R, T, H = cost.Ring, cost.Tree, cost.HalvingDoubling

	rows := []struct {
		name       string
		sys        *topology.System
		hier, axes []int
		rows       [][]int
		red        []int
		prog       dsl.Program
		algo       cost.Algorithm
		stepAlgos  []cost.Algorithm
		opts       Options

		total, firstStart, firstEnd, lastStart, lastEnd uint64
		events                                          int
	}{
		{name: "a100:2 rs-ar-ag ring", sys: topology.A100System(2),
			hier: []int{2, 16}, axes: []int{4, 8}, rows: [][]int{{2, 2}, {1, 8}}, red: []int{0},
			prog: rsArAg, algo: R,
			total: 0x4021939974425927, events: 128, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f9053f388a44b38, lastStart: 0x40218b2413f622d0, lastEnd: 0x4021939974425927},
		{name: "a100:4 allreduce tree", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: allReduce, algo: T,
			total: 0x403181423c8a06f6, events: 96, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fb050d7950a93ec, lastStart: 0x4021ad4a488cb445, lastEnd: 0x403181423c8a06f6},
		{name: "a100:4 rs-ar-ag hd nofuse seed7", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: rsArAg, algo: H, opts: noFuseSeed7,
			total: 0x4031a08bfab7f32e, events: 256, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fa05276fa5dfa62, lastStart: 0x4031981817e5dfcd, lastEnd: 0x4031a08bfab7f32e},
		{name: "a100:4 [4 4 4] r[0 2] mixed", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 4, 4}, rows: [][]int{{1, 4}, {2, 2}, {2, 2}}, red: []int{0, 2},
			prog: rsArAg, algo: R, stepAlgos: []cost.Algorithm{R, H, T},
			total: 0x401200d1d3da6bbd, events: 1024, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f8059fde91b0d2f, lastStart: 0x4011f864870c1142, lastEnd: 0x401200d1d3da6bbd},
		{name: "a100:4 ar-ar fused ring", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: arAr, algo: R,
			total: 0x403a4e86c3c82ca4, events: 384, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f905974a7e35bce, lastStart: 0x4035fdbb58a5dbe9, lastEnd: 0x403a4e86c3c82ca4},
		{name: "a100:4 r-ar-b tree quiet", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: rArB, algo: T, opts: quiet,
			total: 0x40313e57379b9289, events: 96, firstStart: 0x0, firstEnd: 0x3fa049ffe96366f3, lastStart: 0x4031363237a6e0d6, lastEnd: 0x40313e57379b9289},
		{name: "a100:4 r-ar-b ring (reversed chain)", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: rArB, algo: R,
			total: 0x40319c6a1804dbaa, events: 128, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fa04e05b03aabfa, lastStart: 0x403193f39b710aed, lastEnd: 0x40319c6a1804dbaa},
		{name: "v100:2 cross-domain ring", sys: topology.V100System(2),
			hier: []int{2, 8}, axes: []int{4, 4}, rows: [][]int{{1, 4}, {2, 2}}, red: []int{1},
			prog: rsArAg, algo: R,
			total: 0x4011cdbaf4344241, events: 64, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fa05b22634fbc71, lastStart: 0x4011abed6e3295e7, lastEnd: 0x4011cdbaf4344241},
		{name: "v100:4 cross-domain tree quiet", sys: topology.V100System(4),
			hier: []int{4, 8}, axes: []int{8, 4}, rows: [][]int{{1, 8}, {4, 1}}, red: []int{0},
			prog: allReduce, algo: T, opts: quiet,
			total: 0x40012e0e873d87b2, events: 56, firstStart: 0x0, firstEnd: 0x3fc86effde151a6d, lastStart: 0x3ff12e11265438ce, lastEnd: 0x40012e0e873d87b2},
		{name: "superpod:3x4 residual hd", sys: topology.SuperPodSystem(3, 4),
			hier: []int{3, 4, 8}, axes: []int{12, 8}, rows: [][]int{{3, 4, 1}, {1, 1, 8}}, red: []int{0},
			prog: allReduce, algo: H,
			total: 0x40279563baca2d11, events: 448, firstStart: 0x3eff75104d551d69, firstEnd: 0x4010801ca54e1142, lastStart: 0x401f2a2157bd7890, lastEnd: 0x40279563baca2d11},
		{name: "superpod:3x4 rs-ar-ag mixed nofuse seed7", sys: topology.SuperPodSystem(3, 4),
			hier: []int{3, 4, 8}, axes: []int{12, 8}, rows: [][]int{{3, 2, 2}, {1, 2, 4}}, red: []int{0},
			prog: rsArAg, algo: R, stepAlgos: []cost.Algorithm{H, R, H}, opts: noFuseSeed7,
			total: 0x400cc0a63568a391, events: 960, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f887f4bbb27af46, lastStart: 0x400bb9a450dd8c84, lastEnd: 0x400cc0a63568a391},
		{name: "superpod:2x2 ring quiet", sys: topology.SuperPodSystem(2, 2),
			hier: []int{2, 2, 8}, axes: []int{4, 8}, rows: [][]int{{2, 2, 1}, {1, 1, 8}}, red: []int{0},
			prog: rsArAg, algo: R, opts: quiet,
			total: 0x40007e34e1d09453, events: 128, firstStart: 0x0, firstEnd: 0x3fd5fd7fe1796495, lastStart: 0x3ffb7d09cb42cf81, lastEnd: 0x40007e34e1d09453},
		{name: "a100:4 throttled nic", sys: a100x4.MustWithOverrides(topology.Throttle(0, 1, 10)),
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: rsArAg, algo: R, opts: Options{DisableNoise: true},
			total: 0x40657b9908dd8589, events: 256, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fa04dee8b6d1197, lastStart: 0x40657a9468deef53, lastEnd: 0x40657b9908dd8589},
		{name: "a100:4 down nic", sys: a100x4.MustWithOverrides(topology.Down(0, 2)),
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: allReduce, algo: R,
			total: 0x7ff0000000000000, events: 208, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f806985daee819b, lastStart: 0x4035e8c7d4e4a6f4, lastEnd: 0x403a3073fd0b34e6},
	}
	for _, r := range rows {
		lp := lowerFor(t, r.hier, r.axes, r.rows, r.red, r.prog)
		var first, last Event
		events := 0
		sim := &Simulator{Sys: r.sys, Algo: r.algo, Bytes: cost.PayloadBytes(r.hier[0]), Opts: r.opts,
			Recorder: func(ev Event) {
				if events == 0 {
					first = ev
				}
				last = ev
				events++
			}}
		total := sim.MeasureSteps(lp, r.stepAlgos)
		got := [5]uint64{math.Float64bits(total),
			math.Float64bits(first.Start), math.Float64bits(first.End),
			math.Float64bits(last.Start), math.Float64bits(last.End)}
		want := [5]uint64{r.total, r.firstStart, r.firstEnd, r.lastStart, r.lastEnd}
		if got != want || events != r.events {
			t.Errorf("%s:\n got total: %#x, events: %d, firstStart: %#x, firstEnd: %#x, lastStart: %#x, lastEnd: %#x,\nwant total: %#x, events: %d, firstStart: %#x, firstEnd: %#x, lastStart: %#x, lastEnd: %#x",
				r.name, got[0], events, got[1], got[2], got[3], got[4],
				want[0], r.events, want[1], want[2], want[3], want[4])
		}
	}
}
