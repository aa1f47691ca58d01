package cost

import (
	"fmt"

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

// Schedule is how NCCL runs one collective over a group of N devices: the
// link pattern plus the two views the simulators take of it. The analytic
// model charges every link its whole volume at once and counts latency
// rounds; the event emulator executes rounds of concurrent transfers. Both
// views are carried because neither is derivable from the other in floats:
// 2·(n−1)/n·D is not 2(n−1) additions of D/n, and a tree AllReduce adds 2D
// to a link once, not D twice.
type Schedule struct {
	Pattern Pattern
	N       int

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
// analytic model, the Scorer and the event emulator all consume its result,
// so a collective is added or changed here and nowhere else.
func ScheduleOf(op collective.Op, algo Algorithm, n int, perDevice float64) Schedule {
	switch op {
	case collective.AllReduce:
		switch algo {
		case Tree:
			// Reduce up the tree, broadcast back down.
			return Schedule{Pattern: PatternTree, N: n, LinkBytes: 2 * perDevice, LatencyRounds: 2 * logRounds(n),
				Rounds: 2, RoundBytes: perDevice, TowardRoot: true}
		case HalvingDoubling:
			// 2·⌈log2 n⌉ rounds: for a power of two, the halving plus
			// doubling phases; otherwise 2·⌊log2 n⌋ core rounds plus the
			// residual fold pre-round and unfold post-round.
			rounds := 2 * logRounds(n)
			return Schedule{Pattern: PatternHalvingDoubling, N: n, LinkBytes: perDevice, LatencyRounds: rounds,
				Rounds: rounds, RoundBytes: perDevice}
		default:
			return Schedule{Pattern: PatternRing, N: n, LinkBytes: 2 * float64(n-1) / float64(n) * perDevice, LatencyRounds: 2 * (n - 1),
				Rounds: 2 * (n - 1), RoundBytes: perDevice / float64(n)}
		}
	case collective.ReduceScatter:
		// NCCL implements ReduceScatter with a ring regardless of algo.
		return Schedule{Pattern: PatternRing, N: n, LinkBytes: float64(n-1) / float64(n) * perDevice, LatencyRounds: n - 1,
			Rounds: n - 1, RoundBytes: perDevice / float64(n)}
	case collective.AllGather:
		// Each device holds perDevice and must collect n-1 more shards.
		return Schedule{Pattern: PatternRing, N: n, LinkBytes: float64(n-1) * perDevice, LatencyRounds: n - 1,
			Rounds: n - 1, RoundBytes: perDevice}
	case collective.Reduce, collective.Broadcast:
		// One pass toward (Reduce) or away from (Broadcast) the root: over
		// the tree, or over the chain when NCCL is pinned to Ring — all hops
		// of the pipelined chain are busy at once, so the emulator runs it
		// as a single round.
		s := Schedule{Pattern: PatternTree, N: n, LinkBytes: perDevice, LatencyRounds: logRounds(n),
			Rounds: 1, RoundBytes: perDevice, TowardRoot: op == collective.Reduce}
		if algo == Ring {
			s.Pattern, s.LatencyRounds = PatternChain, n-1
		}
		return s
	default:
		panic(fmt.Sprintf("cost: unknown op %v", op))
	}
}

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

// relEdge is one link of the analytic view in group-index space.
type relEdge struct {
	a, b  int
	bytes float64
}

// edges expands the analytic view of a ring, chain or halving-doubling
// schedule (a tree's links come from treePartition over the concrete group)
// into one exact-capacity slice: the Scorer's memo misses on every fresh plan, so
// this is on the planner's hot path. Routing a link bumps both endpoints'
// uplinks by the same amount and all links of one halving-doubling level
// carry the same bytes, so the order inside a level is free (it is the
// emulator's); across levels floats do not reassociate, and fold and
// unfold are both accumulated before the core.
func (s Schedule) edges() []relEdge {
	switch n := s.N; s.Pattern {
	case PatternRing:
		out := make([]relEdge, n)
		for i := range out {
			a, b := RingLink(n, i)
			out[i] = relEdge{a, b, s.LinkBytes}
		}
		return out
	case PatternChain:
		out := make([]relEdge, n-1)
		for i := range out {
			a, b := ChainLink(i)
			out[i] = relEdge{a, b, s.LinkBytes}
		}
		return out
	case PatternHalvingDoubling:
		p := CorePow2(n)
		out := make([]relEdge, 0, 2*(n-p)+p*logRounds(p))
		for k := p; k < n; k++ {
			a, b := FoldLink(p, k)
			out = append(out, relEdge{a, b, s.LinkBytes}, relEdge{b, a, s.LinkBytes})
		}
		for r := 0; 1<<r < p; r++ {
			bytes := 2 * s.LinkBytes / float64(int(2)<<r) // halving + doubling phases
			for i := 0; i < p; i++ {
				a, b := CoreLink(r, i)
				out = append(out, relEdge{a, b, bytes})
			}
		}
		return out
	default:
		panic(fmt.Sprintf("cost: pattern %d has no group-independent edges", s.Pattern))
	}
}
