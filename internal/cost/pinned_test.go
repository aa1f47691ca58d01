package cost

import (
	"math"
	"testing"

	"p2/internal/collective"
	"p2/internal/lower"
	"p2/internal/topology"
)

// partition splits devices 0..n-1 into n/g groups of g: contiguous blocks,
// or — strided — group k holding k, k+n/g, k+2n/g, …, which puts every
// member of a group under a different top-level entity.
func partition(n, g int, strided bool) [][]int {
	out := make([][]int, n/g)
	for k := range out {
		grp := make([]int, g)
		for i := range grp {
			if strided {
				grp[i] = k + i*(n/g)
			} else {
				grp[i] = k*g + i
			}
		}
		out[k] = grp
	}
	return out
}

// TestStepTimePinnedBits pins the analytic model's absolute output bit for
// bit: Float64bits of Model.StepTime, which Scorer.StepTimeAlgo must
// reproduce. The values were recorded at commit ba1bf46, when Model, Scorer
// and netsim each still expanded the ring/chain/tree/halving-doubling
// schedule themselves, immediately before the three expansions were
// replaced by ScheduleOf — so the table is the proof that the one generator
// performs the old float arithmetic operation for operation. Since then
// TestScorerMatchesModel compares two consumers of one generator and cannot
// see a change to it; this table can. A deliberate change to the model's
// arithmetic re-records it (the failure message prints the new bits).
func TestStepTimePinnedBits(t *testing.T) {
	const (
		AR = collective.AllReduce
		RS = collective.ReduceScatter
		AG = collective.AllGather
		RD = collective.Reduce
		BC = collective.Broadcast
	)
	const R, T, H = Ring, Tree, HalvingDoubling
	pod := topology.SuperPodSystem(3, 4) // 96 devices: every size below divides it
	a100 := topology.A100System(4)
	throttled := a100.MustWithOverrides(topology.Throttle(0, 1, 10))
	down := a100.MustWithOverrides(topology.Down(0, 2))
	v100 := topology.V100System(2)
	const odd = 1e6 + 1.0/3 // a payload no schedule divides exactly

	rows := []struct {
		name    string
		sys     *topology.System
		op      collective.Op
		algo    Algorithm
		groups  [][]int
		rows, k int
		bytes   float64
		bits    uint64
	}{
		{name: "pod ar ring g2", sys: pod, op: AR, algo: R, groups: partition(96, 2, false), rows: 1, k: 1, bytes: odd, bits: 0x3ee7ec4e79aa8668},
		{name: "pod ar tree g3 strided", sys: pod, op: AR, algo: T, groups: partition(96, 3, true), rows: 1, k: 3, bytes: odd, bits: 0x3f509a3aafe407f9},
		{name: "pod ar hd g3 strided", sys: pod, op: AR, algo: H, groups: partition(96, 3, true), rows: 2, k: 3, bytes: odd, bits: 0x3f5e955eaeaba2e6},
		{name: "pod ar hd g6 strided", sys: pod, op: AR, algo: H, groups: partition(96, 6, true), rows: 1, k: 1, bytes: DefaultPayload(pod), bits: 0x4048bd37baeca47d},
		{name: "pod ar hd g12 strided", sys: pod, op: AR, algo: H, groups: partition(96, 12, true), rows: 1, k: 3, bytes: odd, bits: 0x3f4bf647c2eb3612},
		{name: "pod ar hd g8", sys: pod, op: AR, algo: H, groups: partition(96, 8, false), rows: 1, k: 1, bytes: odd, bits: 0x3efa2cf20cae0fd8},
		{name: "pod ar ring g12 one group", sys: pod, op: AR, algo: R, groups: partition(96, 12, true)[:1], rows: 1, k: 1, bytes: odd, bits: 0x3f4f3d23cc02fee9},
		{name: "pod rs ring g4", sys: pod, op: RS, algo: R, groups: partition(96, 4, false), rows: 3, k: 3, bytes: odd, bits: 0x3ee83bd7b7841de4},
		{name: "pod rs tree g6 strided", sys: pod, op: RS, algo: T, groups: partition(96, 6, true), rows: 1, k: 3, bytes: odd, bits: 0x3f38c20f7489cd50},
		{name: "pod rs hd g12", sys: pod, op: RS, algo: H, groups: partition(96, 12, false), rows: 1, k: 1, bytes: 64, bits: 0x3f3cd60dc4989450},
		{name: "pod ag ring g8 strided", sys: pod, op: AG, algo: R, groups: partition(96, 8, true), rows: 1, k: 3, bytes: odd, bits: 0x3f56f006f457ba3a},
		{name: "pod ag tree g2", sys: pod, op: AG, algo: T, groups: partition(96, 2, false), rows: 1, k: 1, bytes: odd, bits: 0x3ee3ba90917d0b05},
		{name: "pod ag hd g3", sys: pod, op: AG, algo: H, groups: partition(96, 3, false), rows: 2, k: 3, bytes: odd, bits: 0x3f28777ec3394f57},
		{name: "pod rd ring g6", sys: pod, op: RD, algo: R, groups: partition(96, 6, false), rows: 1, k: 1, bytes: odd, bits: 0x3f2f75106aa71d40},
		{name: "pod rd tree g12 strided", sys: pod, op: RD, algo: T, groups: partition(96, 12, true), rows: 1, k: 3, bytes: odd, bits: 0x3f3179ecc3d581e7},
		{name: "pod rd hd g4", sys: pod, op: RD, algo: H, groups: partition(96, 4, false), rows: 1, k: 1, bytes: odd, bits: 0x3ee7ec4e79aa8668},
		{name: "pod bc ring g12 strided", sys: pod, op: BC, algo: R, groups: partition(96, 12, true), rows: 2, k: 3, bytes: odd, bits: 0x3f45688ecd802594},
		{name: "pod bc tree g8", sys: pod, op: BC, algo: T, groups: partition(96, 8, false), rows: 1, k: 1, bytes: odd, bits: 0x3ef1f13adb3fe4ce},
		{name: "pod bc hd g6", sys: pod, op: BC, algo: H, groups: partition(96, 6, false), rows: 1, k: 1, bytes: odd, bits: 0x3f24f8b5a63568c8},
		{name: "a100 ar ring g4 contended nic", sys: a100, op: AR, algo: R, groups: partition(64, 4, true), rows: 1, k: 1, bytes: DefaultPayload(a100), bits: 0x4049c515cadc4b8a},
		{name: "a100 throttled ar ring g4 strided", sys: throttled, op: AR, algo: R, groups: partition(64, 4, true), rows: 1, k: 1, bytes: DefaultPayload(a100), bits: 0x40801b2b688e89c6},
		{name: "a100 throttled ar hd g8 strided", sys: throttled, op: AR, algo: H, groups: partition(64, 8, true), rows: 1, k: 3, bytes: odd, bits: 0x3f84b9cbdad10e12},
		{name: "a100 down ar tree g4 strided", sys: down, op: AR, algo: T, groups: partition(64, 4, true), rows: 1, k: 1, bytes: odd, bits: 0x7ff0000000000000},
		{name: "a100 down rd ring g16 in node", sys: down, op: RD, algo: R, groups: partition(64, 16, false), rows: 1, k: 1, bytes: odd, bits: 0x3f039cbcd0fe729c},
		{name: "v100 ar tree g4", sys: v100, op: AR, algo: T, groups: partition(16, 4, false), rows: 1, k: 1, bytes: DefaultPayload(v100), bits: 0x3fc04a430541e9cb},
	}
	scorers := map[*topology.System]*Scorer{}
	for _, r := range rows {
		sc := scorers[r.sys]
		if sc == nil {
			sc = NewScorer(r.sys)
			scorers[r.sys] = sc
		}
		st := lower.Step{Op: r.op, Groups: r.groups, Rows: r.rows, RowsOut: r.rows, K: r.k}
		m := &Model{Sys: r.sys, Algo: r.algo, Bytes: r.bytes}
		model := math.Float64bits(m.StepTime(st))
		scorer := math.Float64bits(sc.StepTimeAlgo(m, st, r.algo))
		if model != r.bits || scorer != r.bits {
			t.Errorf("%s: model bits: %#x, scorer bits: %#x, want bits: %#x", r.name, model, scorer, r.bits)
		}
	}
}
