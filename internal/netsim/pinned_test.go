package netsim

import (
	"math"
	"slices"
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

// TestMeasurePinnedBits pins the emulator's absolute output bit for bit:
// Float64bits of MeasureSteps, the Recorder's event count, the Start/End
// bits of its first and last event, and eventsDigest, FNV-1a over every
// field of every event in stream order (eventDigest), so a changed
// Recorder order, endpoint or timestamp anywhere in the stream fails. The
// digests were recorded at 442bf5b, before the event loop routed each
// transfer spec once per step. The other values were recorded on
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
		eventsDigest                                    uint64
	}{
		{name: "a100:2 rs-ar-ag ring", sys: topology.A100System(2),
			hier: []int{2, 16}, axes: []int{4, 8}, rows: [][]int{{2, 2}, {1, 8}}, red: []int{0},
			prog: rsArAg, algo: R,
			total: 0x4021939974425927, events: 128, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f9053f388a44b38, lastStart: 0x40218b2413f622d0, lastEnd: 0x4021939974425927,
			eventsDigest: 0x6912a68d928a7684},
		{name: "a100:4 allreduce tree", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: allReduce, algo: T,
			total: 0x403181423c8a06f6, events: 96, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fb050d7950a93ec, lastStart: 0x4021ad4a488cb445, lastEnd: 0x403181423c8a06f6,
			eventsDigest: 0x132450c2562e0a36},
		{name: "a100:4 rs-ar-ag hd nofuse seed7", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: rsArAg, algo: H, opts: noFuseSeed7,
			total: 0x4031a08bfab7f32e, events: 256, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fa05276fa5dfa62, lastStart: 0x4031981817e5dfcd, lastEnd: 0x4031a08bfab7f32e,
			eventsDigest: 0x47d9ce392f995ee7},
		{name: "a100:4 [4 4 4] r[0 2] mixed", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 4, 4}, rows: [][]int{{1, 4}, {2, 2}, {2, 2}}, red: []int{0, 2},
			prog: rsArAg, algo: R, stepAlgos: []cost.Algorithm{R, H, T},
			total: 0x401200d1d3da6bbd, events: 1024, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f8059fde91b0d2f, lastStart: 0x4011f864870c1142, lastEnd: 0x401200d1d3da6bbd,
			eventsDigest: 0x22f3bf3745216501},
		{name: "a100:4 ar-ar fused ring", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: arAr, algo: R,
			total: 0x403a4e86c3c82ca4, events: 384, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f905974a7e35bce, lastStart: 0x4035fdbb58a5dbe9, lastEnd: 0x403a4e86c3c82ca4,
			eventsDigest: 0x675498e662d81930},
		{name: "a100:4 r-ar-b tree quiet", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: rArB, algo: T, opts: quiet,
			total: 0x40313e57379b9289, events: 96, firstStart: 0x0, firstEnd: 0x3fa049ffe96366f3, lastStart: 0x4031363237a6e0d6, lastEnd: 0x40313e57379b9289,
			eventsDigest: 0xc84821100204d5f5},
		{name: "a100:4 r-ar-b ring (reversed chain)", sys: a100x4,
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: rArB, algo: R,
			total: 0x40319c6a1804dbaa, events: 128, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fa04e05b03aabfa, lastStart: 0x403193f39b710aed, lastEnd: 0x40319c6a1804dbaa,
			eventsDigest: 0x61b0f262993a1643},
		{name: "v100:2 cross-domain ring", sys: topology.V100System(2),
			hier: []int{2, 8}, axes: []int{4, 4}, rows: [][]int{{1, 4}, {2, 2}}, red: []int{1},
			prog: rsArAg, algo: R,
			total: 0x4011cdbaf4344241, events: 64, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fa05b22634fbc71, lastStart: 0x4011abed6e3295e7, lastEnd: 0x4011cdbaf4344241,
			eventsDigest: 0x5c5606db57d1b3b3},
		{name: "v100:4 cross-domain tree quiet", sys: topology.V100System(4),
			hier: []int{4, 8}, axes: []int{8, 4}, rows: [][]int{{1, 8}, {4, 1}}, red: []int{0},
			prog: allReduce, algo: T, opts: quiet,
			total: 0x40012e0e873d87b2, events: 56, firstStart: 0x0, firstEnd: 0x3fc86effde151a6d, lastStart: 0x3ff12e11265438ce, lastEnd: 0x40012e0e873d87b2,
			eventsDigest: 0xd714f76414fd4631},
		{name: "superpod:3x4 residual hd", sys: topology.SuperPodSystem(3, 4),
			hier: []int{3, 4, 8}, axes: []int{12, 8}, rows: [][]int{{3, 4, 1}, {1, 1, 8}}, red: []int{0},
			prog: allReduce, algo: H,
			total: 0x40279563baca2d11, events: 448, firstStart: 0x3eff75104d551d69, firstEnd: 0x4010801ca54e1142, lastStart: 0x401f2a2157bd7890, lastEnd: 0x40279563baca2d11,
			eventsDigest: 0xb93a45dc519a9066},
		{name: "superpod:3x4 rs-ar-ag mixed nofuse seed7", sys: topology.SuperPodSystem(3, 4),
			hier: []int{3, 4, 8}, axes: []int{12, 8}, rows: [][]int{{3, 2, 2}, {1, 2, 4}}, red: []int{0},
			prog: rsArAg, algo: R, stepAlgos: []cost.Algorithm{H, R, H}, opts: noFuseSeed7,
			total: 0x400cc0a63568a391, events: 960, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f887f4bbb27af46, lastStart: 0x400bb9a450dd8c84, lastEnd: 0x400cc0a63568a391,
			eventsDigest: 0xe8a2702d274e44f},
		{name: "superpod:2x2 ring quiet", sys: topology.SuperPodSystem(2, 2),
			hier: []int{2, 2, 8}, axes: []int{4, 8}, rows: [][]int{{2, 2, 1}, {1, 1, 8}}, red: []int{0},
			prog: rsArAg, algo: R, opts: quiet,
			total: 0x40007e34e1d09453, events: 128, firstStart: 0x0, firstEnd: 0x3fd5fd7fe1796495, lastStart: 0x3ffb7d09cb42cf81, lastEnd: 0x40007e34e1d09453,
			eventsDigest: 0xed58c28ac5b65c45},
		{name: "a100:4 throttled nic", sys: withFaults(t, a100x4, "0:1:bw/10"),
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: rsArAg, algo: R, opts: Options{DisableNoise: true},
			total: 0x40657b9908dd8589, events: 256, firstStart: 0x3eff75104d551d69, firstEnd: 0x3fa04dee8b6d1197, lastStart: 0x40657a9468deef53, lastEnd: 0x40657b9908dd8589,
			eventsDigest: 0x76effa47aa696565},
		{name: "a100:4 down nic", sys: withFaults(t, a100x4, "0:2:down"),
			hier: []int{4, 16}, axes: []int{4, 16}, rows: [][]int{{2, 2}, {2, 8}}, red: []int{0},
			prog: allReduce, algo: R,
			total: 0x7ff0000000000000, events: 208, firstStart: 0x3eff75104d551d69, firstEnd: 0x3f806985daee819b, lastStart: 0x4035e8c7d4e4a6f4, lastEnd: 0x403a3073fd0b34e6,
			eventsDigest: 0xfc890c1e2706d6b3},
	}
	for _, r := range rows {
		lp := lowerFor(t, r.hier, r.axes, r.rows, r.red, r.prog)
		var first, last Event
		d := newEventDigest()
		sim := &Simulator{Sys: r.sys, Algo: r.algo, Bytes: cost.PayloadBytes(r.hier[0]), Opts: r.opts,
			Recorder: func(ev Event) {
				if d.n == 0 {
					first = ev
				}
				last = ev
				d.add(ev)
			}}
		total := sim.MeasureSteps(lp, r.stepAlgos)
		got := [6]uint64{math.Float64bits(total),
			math.Float64bits(first.Start), math.Float64bits(first.End),
			math.Float64bits(last.Start), math.Float64bits(last.End), d.h}
		want := [6]uint64{r.total, r.firstStart, r.firstEnd, r.lastStart, r.lastEnd, r.eventsDigest}
		if got != want || d.n != uint64(r.events) {
			t.Errorf("%s:\n got total: %#x, events: %d, firstStart: %#x, firstEnd: %#x, lastStart: %#x, lastEnd: %#x, eventsDigest: %#x,\nwant total: %#x, events: %d, firstStart: %#x, firstEnd: %#x, lastStart: %#x, lastEnd: %#x, eventsDigest: %#x",
				r.name, got[0], d.n, got[1], got[2], got[3], got[4], got[5],
				want[0], r.events, want[1], want[2], want[3], want[4], want[5])
		}
	}
}

// TestMeasureConcurrentPinnedBits pins multi-lane runs the way
// TestMeasurePinnedBits pins one lane: each row's value is recorded's
// output, every lane's Float64bits followed by the Recorder's event count
// and eventsDigest over the whole interleaved stream. The rows were
// recorded at 8718823, before the rate pass kept the rate of a transfer
// none of whose links changed share, and cover what a single lane cannot:
// lanes sharing links, each lane's own payload, algorithm and per-step
// assignment, a cross-domain slot two lanes load, and a live lane beside
// one stalled on a down link.
func TestMeasureConcurrentPinnedBits(t *testing.T) {
	a100, rows := []int{4, 16}, [][]int{{2, 2}, {2, 8}}
	// The BenchmarkNetsimConcurrent pair, lowered as the benchmark lowers
	// it (no collapse).
	m, err := placement.NewMatrix(a100, a100, rows)
	if err != nil {
		t.Fatal(err)
	}
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	var bench []*lower.Program
	for _, p := range []dsl.Program{synth.BaselineAllReduce(), rsArAg} {
		lp, err := lower.Lower(p, h)
		if err != nil {
			t.Fatal(err)
		}
		bench = append(bench, lp)
	}
	allReduce := lowerFor(t, a100, a100, rows, []int{0}, synth.BaselineAllReduce())
	ring := lowerFor(t, a100, a100, rows, []int{0}, rsArAg)
	mixed := lowerFor(t, a100, []int{4, 4, 4}, [][]int{{1, 4}, {2, 2}, {2, 2}}, []int{0, 2}, rsArAg)
	v100 := []int{2, 8}
	v100Ring := lowerFor(t, v100, []int{4, 4}, [][]int{{1, 4}, {2, 2}}, []int{1}, rsArAg)
	v100AR := lowerFor(t, v100, []int{4, 4}, [][]int{{1, 4}, {2, 2}}, []int{1}, synth.BaselineAllReduce())
	intraNode := lowerFor(t, a100, a100, [][]int{{1, 4}, {4, 4}}, []int{0}, synth.BaselineAllReduce())
	a100x4 := topology.A100System(4)
	const R, T, H = cost.Ring, cost.Tree, cost.HalvingDoubling

	for _, r := range []struct {
		name  string
		sim   Simulator
		specs []ConcurrentSpec
		want  []uint64
	}{
		{name: "BenchmarkNetsimConcurrent pair",
			sim: Simulator{Sys: a100x4},
			specs: []ConcurrentSpec{
				{Program: bench[0], Bytes: cost.PayloadBytes(4), Algo: R},
				{Program: bench[1], Bytes: cost.PayloadBytes(4), Algo: R},
			},
			want: []uint64{0x4045eefb71f47d5a, 0x403a82431b0edbbc, 0x280, 0x2c2072497c33cfa4}},
		{name: "three lanes mixed",
			sim: Simulator{Sys: a100x4, Opts: Options{Seed: 11, NoiseFrac: 0.1}},
			specs: []ConcurrentSpec{
				{Program: allReduce, Bytes: 1 << 28, Algo: T},
				{Program: ring, Bytes: 3 << 25, Algo: H},
				{Program: mixed, Bytes: 5 << 24, Algo: R, StepAlgos: []cost.Algorithm{R, H, T}},
			},
			want: []uint64{0x3fea6c78a1ec635e, 0x3fd42adee06196c1, 0x3fbae7b552631e01, 0x560, 0x3178be4db2bf2a73}},
		{name: "v100:2 cross-domain pair",
			sim: Simulator{Sys: topology.V100System(2), Opts: Options{Seed: 5}},
			specs: []ConcurrentSpec{
				{Program: v100Ring, Bytes: cost.PayloadBytes(2), Algo: R},
				{Program: v100AR, Bytes: cost.PayloadBytes(2) / 3, Algo: T},
			},
			want: []uint64{0x40166c007349a751, 0x40175283f7951260, 0x58, 0xa869c5f001743d74}},
		{name: "live lane beside a down-link lane",
			sim: Simulator{Sys: withFaults(t, a100x4, "0:2:down")},
			specs: []ConcurrentSpec{
				{Program: allReduce, Bytes: cost.PayloadBytes(4), Algo: R},
				{Program: intraNode, Bytes: cost.PayloadBytes(4), Algo: H},
			},
			want: []uint64{0x7ff0000000000000, 0x3fc3f88917f3ea4e, 0x1d0, 0xb31a64c98c67cea8}},
	} {
		got := recorded(r.sim, func(s *Simulator) []float64 { return s.MeasureConcurrentSpecs(r.specs) })
		if !slices.Equal(got, r.want) {
			t.Errorf("%s:\n got %#x\nwant %#x", r.name, got, r.want)
		}
	}
}
