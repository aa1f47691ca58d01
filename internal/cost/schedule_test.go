package cost

import (
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
func emulatorRounds(sch Schedule) (rounds [][][2]int, repeat []int, bytes []float64) {
	add := func(round [][2]int, rep int, b float64) {
		rounds, repeat, bytes = append(rounds, round), append(repeat, rep), append(bytes, b)
	}
	n := sch.N
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

// TestScheduleViewsAgree holds the two views of one Schedule together: per
// unordered link, the emulator's rounds × per-round bytes must sum to the
// analytic volume, both views must run over the same multiset of links,
// the emulator's round count must be the one it unrolls, and LatencyRounds
// must equal the count computed independently here.
func TestScheduleViewsAgree(t *testing.T) {
	const d = 1e6 + 1.0/3
	ops := []collective.Op{collective.AllReduce, collective.ReduceScatter, collective.AllGather,
		collective.Reduce, collective.Broadcast}
	for _, op := range ops {
		for _, algo := range ExtendedAlgorithms {
			for n := 2; n <= 64; n++ {
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
				if sch.N != n || sch.LatencyRounds != wantLatency {
					t.Errorf("%v %v n=%d: N=%d LatencyRounds=%d, want %d", op, algo, n, sch.N, sch.LatencyRounds, wantLatency)
				}
				if sch.Pattern == PatternTree {
					// Both views run over TreeLinks of the concrete group.
					if got := float64(sch.Rounds) * sch.RoundBytes; math.Abs(got-sch.LinkBytes) > 1e-12*sch.LinkBytes {
						t.Errorf("%v %v n=%d: tree link moves %v emulated, %v analytic", op, algo, n, got, sch.LinkBytes)
					}
					continue
				}
				analytic, analyticLinks := map[[2]int]float64{}, map[[2]int]int{}
				for _, e := range sch.edges() {
					analytic[link(e.a, e.b)] += e.bytes
					analyticLinks[link(e.a, e.b)]++
				}
				emulated, emulatedLinks := map[[2]int]float64{}, map[[2]int]int{}
				rounds, repeat, bytes := emulatorRounds(sch)
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
		}
	}
}
