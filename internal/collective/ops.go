package collective

import (
	"errors"
	"fmt"
)

// Op is one of the five collective operations the paper formalizes.
type Op int

const (
	AllReduce Op = iota
	ReduceScatter
	AllGather
	Reduce
	Broadcast
	numOps
)

// Ops lists every operation in canonical order, used by the synthesizer's
// enumeration.
var Ops = []Op{AllReduce, ReduceScatter, AllGather, Reduce, Broadcast}

// String returns the operation name as used in the paper.
func (op Op) String() string {
	switch op {
	case AllReduce:
		return "AllReduce"
	case ReduceScatter:
		return "ReduceScatter"
	case AllGather:
		return "AllGather"
	case Reduce:
		return "Reduce"
	case Broadcast:
		return "Broadcast"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// ParseOp parses an operation name (case-sensitive, as printed by String).
func ParseOp(s string) (Op, error) {
	for _, op := range Ops {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("collective: unknown op %q", s)
}

// Semantic-precondition violations. Programs triggering these are the
// "semantically invalid" reductions of §2.3 (e.g. Fig. 4) and are pruned by
// the synthesizer.
var (
	// ErrRowMismatch: devices in a reducing group hold different chunk
	// sets (violates the rows-equality premise of R-AllReduce /
	// R-ReduceScatter / R-Reduce).
	ErrRowMismatch = errors.New("collective: devices hold different chunk sets")
	// ErrOverlap: two devices would reduce overlapping contributions —
	// the same original data twice (violates the ⃝⋆ disjointness premise).
	ErrOverlap = errors.New("collective: overlapping contributions would be reduced twice")
	// ErrRowSetsOverlap: AllGather inputs share a chunk row.
	ErrRowSetsOverlap = errors.New("collective: gathered chunk sets overlap")
	// ErrRowCountMismatch: AllGather inputs differ in chunk count.
	ErrRowCountMismatch = errors.New("collective: gathered chunk counts differ")
	// ErrNotDivisible: ReduceScatter chunk count not divisible by the
	// group size.
	ErrNotDivisible = errors.New("collective: chunk count not divisible by group size")
	// ErrNoGain: Broadcast would not strictly increase any device's
	// information (the information-increase optimization of R-Broadcast).
	ErrNoGain = errors.New("collective: broadcast adds no information")
	// ErrNotPrefix: Broadcast source is not a superset of every receiver.
	ErrNotPrefix = errors.New("collective: broadcast source missing receiver data")
	// ErrGroupTooSmall: the group has fewer than two devices, so no
	// reduction happens.
	ErrGroupTooSmall = errors.New("collective: group smaller than two devices")
	// ErrNoData: every device in the group is empty, so the operation
	// would be a no-op (this also guarantees every applied operation
	// changes the state, bounding program length as §4.2 observes).
	ErrNoData = errors.New("collective: no data to operate on")
)

// Check verifies the Hoare-rule precondition of op for the given group
// states without modifying them. A nil return means Apply will succeed.
func Check(op Op, states []*State) error {
	if len(states) < 2 {
		return ErrGroupTooSmall
	}
	switch op {
	case AllReduce, Reduce:
		return checkReduceLike(states)
	case ReduceScatter:
		if err := checkReduceLike(states); err != nil {
			return err
		}
		if states[0].NumRows()%len(states) != 0 {
			return ErrNotDivisible
		}
		return nil
	case AllGather:
		if states[0].NumRows() == 0 {
			return ErrNoData
		}
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				if !states[i].rowSetsDisjoint(states[j]) {
					return ErrRowSetsOverlap
				}
			}
			if states[i].NumRows() != states[0].NumRows() {
				return ErrRowCountMismatch
			}
		}
		return nil
	case Broadcast:
		gain := false
		for _, st := range states[1:] {
			if !st.SubsetOf(states[0]) {
				return ErrNotPrefix
			}
			if !st.Equal(states[0]) {
				gain = true
			}
		}
		if !gain {
			return ErrNoGain
		}
		return nil
	default:
		return fmt.Errorf("collective: unknown op %v", op)
	}
}

func checkReduceLike(states []*State) error {
	if states[0].NumRows() == 0 && states[1].NumRows() == 0 {
		return ErrNoData
	}
	for i := 1; i < len(states); i++ {
		if !states[0].sameRowSet(states[i]) {
			return ErrRowMismatch
		}
	}
	// The ⃝⋆ premise, per chunk: no contribution is held by two members, so
	// no matrix bit is set twice across the group.
	for i := range states[0].matrix() {
		var seen uint64
		for _, st := range states {
			if seen&st.bits[i] != 0 {
				return ErrOverlap
			}
			seen |= st.bits[i]
		}
	}
	return nil
}

// Apply executes op over the group (states in group order; states[0] is the
// root for Reduce/Broadcast, matching the paper's convention of using the
// first device of a hierarchical group as root): Check, then Post on the
// fresh states it writes. On success it returns the post-condition states,
// sealed, leaving the inputs' bits untouched. Members that end up holding
// the same data share one State, and a Broadcast hands out the root's own
// (sealing it, if the caller had not): states are immutable once published
// (see State). On a precondition violation it returns one of the Err*
// sentinels.
func Apply(op Op, states []*State) ([]*State, error) {
	if err := Check(op, states); err != nil {
		return nil, err
	}
	fresh := make([]State, posts(op, len(states)))
	out := make([]*State, len(states))
	for i := range fresh {
		out[i] = &fresh[i]
	}
	src, n := out, Post(op, states, out)
	if n == 0 {
		src, n = states, 1
	}
	for i := range out {
		out[i] = src[min(i, n-1)].Seal()
	}
	return out, nil
}

// Post writes the post-condition of op on the group states, whose premise
// Check has passed, into out[:n] and returns n: member i ends up holding
// out[min(i, n-1)], or for n = 0 (Broadcast) the root's own state. The out
// states are the caller's scratch, never inputs or published states: each
// one written is reshaped to the inputs' size and overwritten, sealed or
// not, and left unsealed. The post-conditions are written here alone; Apply
// is Check plus Post on fresh states.
func Post(op Op, states, out []*State) int {
	k := states[0].k
	switch op {
	case AllReduce, AllGather:
		unionAll(out[0], states)
	case Reduce:
		unionAll(out[0], states)
		out[1].reset(k)
	case ReduceScatter:
		// The members share one row set; the i-th per of its rows, in
		// increasing order, go to member i, summed over the group.
		for _, o := range out[:len(states)] {
			o.reset(k)
		}
		per, j := states[0].NumRows()/len(states), 0
		for r := 0; r < k; r++ {
			if states[0].RowEmpty(r) {
				continue
			}
			o := out[j/per]
			for _, st := range states {
				for w, x := range st.row(r) {
					o.row(r)[w] |= x
				}
			}
			o.mask()[r/64] |= 1 << (uint(r) % 64)
			j++
		}
	case Broadcast:
	default:
		panic(fmt.Sprintf("collective: unknown op %v", op))
	}
	return posts(op, len(states))
}

// posts is the number of out states Post writes for op on a group of n
// members, and what it returns.
func posts(op Op, n int) int {
	return [...]int{AllReduce: 1, AllGather: 1, Reduce: 2, ReduceScatter: n, Broadcast: 0}[op]
}

// unionAll writes the union of states into o.
func unionAll(o *State, states []*State) {
	o.reset(states[0].k)
	for _, st := range states {
		o.unionInto(st)
	}
}
