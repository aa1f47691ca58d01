package cost

import (
	"fmt"
	"math"

	"p2/internal/collective"
)

// Pattern is the shape of the links a collective's schedule runs over.
type Pattern uint8

const (
	// PatternRing is the n neighbour links i → i+1 (mod n) of a ring.
	PatternRing Pattern = iota
	// PatternChain is the n−1 hops of the pipeline chain rooted at member 0.
	PatternChain
	// PatternTree is the hierarchical tree of TreeLinks — the one pattern
	// that depends on where the members sit, not only on how many there are.
	PatternTree
	// PatternHalvingDoubling is the exchanges i ↔ i XOR 2^r between the
	// 2^⌊log2 n⌋ core members plus a fold link per residual member.
	PatternHalvingDoubling
)

// Schedule is how NCCL runs one collective over a group of n devices: the
// link pattern plus the two views the simulators take of it. The analytic
// model charges every link its whole volume at once and counts latency
// rounds; the event emulator executes rounds of concurrent transfers. Both
// views are carried because neither is derivable from the other in floats:
// 2·(n−1)/n·D is not 2(n−1) additions of D/n, and a tree AllReduce adds 2D
// to a link once, not D twice.
type Schedule struct {
	Pattern Pattern

	// Analytic view: LinkBytes is the volume of one link, LatencyRounds the
	// pipeline rounds link latency is paid for. Under halving-doubling
	// LinkBytes is the per-device payload D: a fold link carries D each way
	// and a core link of level r 2D/2^(r+1) each way (the halving and the
	// doubling exchange together).
	LinkBytes     float64
	LatencyRounds int

	// Emulator view: Rounds rounds, one transfer of RoundBytes per link in
	// each. Under halving-doubling RoundBytes is D: the rounds run fold,
	// levels 0…, levels …0, unfold, a fold or unfold transfer moving D and
	// a level-r exchange D/2^(r+1).
	Rounds     int
	RoundBytes float64
	// TowardRoot orients a chain or tree: the first round moves data toward
	// member 0 (Reduce), not away from it (Broadcast); a second reverses it.
	TowardRoot bool
}

// ScheduleOf is the one place that decides how collective op runs under
// algorithm algo over n devices each holding perDevice input bytes. The
// analytic evaluator (Scorer) and the event emulator both consume its
// result, so a collective is added or changed here and nowhere else.
func ScheduleOf(op collective.Op, algo Algorithm, n int, perDevice float64) Schedule {
	switch op {
	case collective.AllReduce:
		switch algo {
		case Tree:
			// Reduce up the tree, broadcast back down.
			return Schedule{Pattern: PatternTree, LinkBytes: 2 * perDevice, LatencyRounds: 2 * logRounds(n),
				Rounds: 2, RoundBytes: perDevice, TowardRoot: true}
		case HalvingDoubling:
			// 2·⌈log2 n⌉ rounds: for a power of two, the halving plus
			// doubling phases; otherwise 2·⌊log2 n⌋ core rounds plus the
			// residual fold pre-round and unfold post-round.
			rounds := 2 * logRounds(n)
			return Schedule{Pattern: PatternHalvingDoubling, LinkBytes: perDevice, LatencyRounds: rounds,
				Rounds: rounds, RoundBytes: perDevice}
		default:
			return Schedule{Pattern: PatternRing, LinkBytes: 2 * float64(n-1) / float64(n) * perDevice, LatencyRounds: 2 * (n - 1),
				Rounds: 2 * (n - 1), RoundBytes: perDevice / float64(n)}
		}
	case collective.ReduceScatter:
		// NCCL implements ReduceScatter with a ring regardless of algo.
		return Schedule{Pattern: PatternRing, LinkBytes: float64(n-1) / float64(n) * perDevice, LatencyRounds: n - 1,
			Rounds: n - 1, RoundBytes: perDevice / float64(n)}
	case collective.AllGather:
		// Each device holds perDevice and must collect n-1 more shards.
		return Schedule{Pattern: PatternRing, LinkBytes: float64(n-1) * perDevice, LatencyRounds: n - 1,
			Rounds: n - 1, RoundBytes: perDevice}
	case collective.Reduce, collective.Broadcast:
		// One pass toward (Reduce) or away from (Broadcast) the root: over
		// the tree, or over the chain when NCCL is pinned to Ring — all hops
		// of the pipelined chain are busy at once, so the emulator runs it
		// as a single round.
		s := Schedule{Pattern: PatternTree, LinkBytes: perDevice, LatencyRounds: logRounds(n),
			Rounds: 1, RoundBytes: perDevice, TowardRoot: op == collective.Reduce}
		if algo == Ring {
			s.Pattern, s.LatencyRounds = PatternChain, n-1
		}
		return s
	default:
		panic(fmt.Sprintf("cost: unknown op %v", op))
	}
}

// Counted reports whether every link of the pattern carries the schedule's
// one LinkBytes volume — Ring and Chain — so that an uplink's analytic
// traffic depends only on how many links cross it, not on their order:
// the Scorer counts these patterns' crossings (see Scorer).
func (p Pattern) Counted() bool { return p == PatternRing || p == PatternChain }

// RingLink is link i of a ring over n members: i → i+1 (mod n). Like the
// other link formulas it works in group-index space — an index is a position
// in the group slice, and every consumer maps it through its concrete group.
func RingLink(n, i int) (src, dst int) { return i, (i + 1) % n }

// ChainLink is hop i (0 ≤ i < n−1) of the chain rooted at member 0.
func ChainLink(i int) (parent, child int) { return i, i + 1 }

// FoldLink is the halving-doubling fold of residual member k (p ≤ k < n)
// into its partner in the core of size p; the unfold is the reverse.
func FoldLink(p, k int) (residual, partner int) { return k, k - p }

// CoreLink is core member i's exchange at halving-doubling level r.
func CoreLink(r, i int) (src, dst int) { return i, i ^ (1 << r) }

// relEdge is one link of the analytic view in group-index space: a tree's,
// from treePartition.
type relEdge struct {
	a, b  int
	bytes float64
}

// SameAnalytic reports whether s and o agree in their analytic view —
// Pattern, LinkBytes and LatencyRounds — which is all a Scorer reads: over
// one group, two schedules that agree in it score the same time.
func (s Schedule) SameAnalytic(o Schedule) bool {
	return s.Pattern == o.Pattern && s.LatencyRounds == o.LatencyRounds &&
		math.Float64bits(s.LinkBytes) == math.Float64bits(o.LinkBytes)
}
