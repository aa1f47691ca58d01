package cost

import (
	"fmt"
	"math"
	"testing"

	"p2/internal/collective"
)

// link is an unordered pair of group indices.
func link(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// emulatorRounds unrolls the emulator view of a ring, chain or
// halving-doubling schedule in group-index space the way netsim does: the
// distinct rounds, how often each runs, and what one transfer of it moves.
func emulatorRounds(sch Schedule, n int) (rounds [][][2]int, repeat []int, bytes []float64) {
	add := func(round [][2]int, rep int, b float64) {
		rounds, repeat, bytes = append(rounds, round), append(repeat, rep), append(bytes, b)
	}
	switch sch.Pattern {
	case PatternRing:
		var round [][2]int
		for i := 0; i < n; i++ {
			round = append(round, link(RingLink(n, i)))
		}
		add(round, sch.Rounds, sch.RoundBytes)
	case PatternChain:
		var round [][2]int
		for i := 0; i < n-1; i++ {
			round = append(round, link(ChainLink(i)))
		}
		add(round, 1, sch.RoundBytes)
	case PatternHalvingDoubling:
		p := CorePow2(n)
		var fold [][2]int
		for k := p; k < n; k++ {
			fold = append(fold, link(FoldLink(p, k)))
		}
		if p < n {
			add(fold, 1, sch.RoundBytes) // fold
			add(fold, 1, sch.RoundBytes) // unfold
		}
		for r := 0; 1<<r < p; r++ {
			var round [][2]int
			for i := 0; i < p; i++ {
				round = append(round, link(CoreLink(r, i)))
			}
			add(round, 2, sch.RoundBytes/float64(int(2)<<r)) // halving + doubling
		}
	}
	return rounds, repeat, bytes
}

// TestScheduleViewsAgree runs checkScheduleViews over every op and
// algorithm for groups of 2 to 64 at a payload no schedule divides.
func TestScheduleViewsAgree(t *testing.T) {
	for _, op := range scheduleOps {
		for _, algo := range ExtendedAlgorithms {
			for n := 2; n <= 64; n++ {
				checkScheduleViews(t, op, algo, n, 1e6+1.0/3)
			}
		}
	}
}

// scheduleOps lists every collective a Schedule expands.
var scheduleOps = []collective.Op{collective.AllReduce, collective.ReduceScatter, collective.AllGather,
	collective.Reduce, collective.Broadcast}

// checkScheduleViews holds the two views of one Schedule together: per
// unordered link, the emulator's rounds × per-round bytes must sum to the
// analytic volume, both views must run over the same multiset of links,
// the emulator's round count must be the one it unrolls, and LatencyRounds
// must equal the count computed independently here.
func checkScheduleViews(t *testing.T, op collective.Op, algo Algorithm, n int, d float64) {
	t.Helper()
	sch := ScheduleOf(op, algo, n, d)
	ceilLog, floorLog := 0, 0
	for 1<<ceilLog < n {
		ceilLog++
	}
	for 2<<floorLog <= n {
		floorLog++
	}
	var wantLatency int
	switch sch.Pattern {
	case PatternRing:
		wantLatency = n - 1
		if op == collective.AllReduce {
			wantLatency = 2 * (n - 1) // reduce-scatter then all-gather
		}
	case PatternChain:
		wantLatency = n - 1
	case PatternTree:
		wantLatency = ceilLog
		if op == collective.AllReduce {
			wantLatency = 2 * ceilLog // up, then down
		}
	case PatternHalvingDoubling:
		// 2 per core halving level plus the fold and unfold
		// rounds when a residual exists.
		wantLatency = 2 * floorLog
		if CorePow2(n) != n {
			wantLatency += 2
		}
	}
	if sch.LatencyRounds != wantLatency {
		t.Errorf("%v %v n=%d: LatencyRounds=%d, want %d", op, algo, n, sch.LatencyRounds, wantLatency)
	}
	if sch.Pattern == PatternTree {
		// Both views run over TreeLinks of the concrete group.
		if got := float64(sch.Rounds) * sch.RoundBytes; math.Abs(got-sch.LinkBytes) > 1e-12*sch.LinkBytes {
			t.Errorf("%v %v n=%d: tree link moves %v emulated, %v analytic", op, algo, n, got, sch.LinkBytes)
		}
		return
	}
	analytic, analyticLinks := map[[2]int]float64{}, map[[2]int]int{}
	for _, e := range sch.edges(n) {
		analytic[link(e.a, e.b)] += e.bytes
		analyticLinks[link(e.a, e.b)]++
	}
	emulated, emulatedLinks := map[[2]int]float64{}, map[[2]int]int{}
	rounds, repeat, bytes := emulatorRounds(sch, n)
	total := 0
	for i, round := range rounds {
		total += repeat[i]
		for _, l := range round {
			emulated[l] += float64(repeat[i]) * bytes[i]
			emulatedLinks[l]++
		}
	}
	if total != sch.Rounds {
		t.Errorf("%v %v n=%d: %d rounds unrolled, Rounds = %d", op, algo, n, total, sch.Rounds)
	}
	if len(analytic) != len(emulated) {
		t.Errorf("%v %v n=%d: %d analytic links, %d emulated", op, algo, n, len(analytic), len(emulated))
	}
	for l, want := range analytic {
		if got := emulated[l]; math.Abs(got-want) > 1e-12*want {
			t.Errorf("%v %v n=%d link %v: emulated volume %v, analytic %v", op, algo, n, l, got, want)
		}
		if analyticLinks[l] != emulatedLinks[l] {
			t.Errorf("%v %v n=%d link %v: %d analytic edges, %d emulated transfers per pass",
				op, algo, n, l, analyticLinks[l], emulatedLinks[l])
		}
	}
}

// volEdge is one link of a schedule's analytic view in group-index space
// with the volume it carries.
type volEdge struct {
	a, b  int
	bytes float64
}

// edges expands the analytic view of a ring, chain or halving-doubling
// schedule into the list of links the Scorer walks inline, in its order:
// the oracle the volume and emulator-agreement tests read.
func (s Schedule) edges(n int) []volEdge {
	switch s.Pattern {
	case PatternRing:
		out := make([]volEdge, n)
		for i := range out {
			a, b := RingLink(n, i)
			out[i] = volEdge{a, b, s.LinkBytes}
		}
		return out
	case PatternChain:
		out := make([]volEdge, n-1)
		for i := range out {
			a, b := ChainLink(i)
			out[i] = volEdge{a, b, s.LinkBytes}
		}
		return out
	case PatternHalvingDoubling:
		p := CorePow2(n)
		var out []volEdge
		for k := p; k < n; k++ {
			a, b := FoldLink(p, k)
			out = append(out, volEdge{a, b, s.LinkBytes}, volEdge{b, a, s.LinkBytes})
		}
		for r := 0; 1<<r < p; r++ {
			bytes := 2 * s.LinkBytes / float64(int(2)<<r) // halving + doubling phases
			for i := 0; i < p; i++ {
				a, b := CoreLink(r, i)
				out = append(out, volEdge{a, b, bytes})
			}
		}
		return out
	default:
		panic(fmt.Sprintf("cost: pattern %d has no group-independent edges", s.Pattern))
	}
}
