package collective

import (
	"errors"
	"testing"
	"testing/quick"
)

// initialPair returns the Fig. 8 setup: 4 devices total, reduction between
// devices 0 and 1 only.
func initialPair() []*State {
	return []*State{InitialState(4, 0), InitialState(4, 1)}
}

func TestAllReduceFig8(t *testing.T) {
	out, err := Apply(AllReduce, initialPair())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		for r := 0; r < 4; r++ {
			if !s.Get(r, 0) || !s.Get(r, 1) || s.Get(r, 2) || s.Get(r, 3) {
				t.Errorf("device %d row %d wrong: %v", i, r, s)
			}
		}
	}
}

func TestReduceScatterFig8(t *testing.T) {
	out, err := Apply(ReduceScatter, initialPair())
	if err != nil {
		t.Fatal(err)
	}
	// 4 chunks over 2 devices: device 0 gets rows 0-1, device 1 rows 2-3,
	// each reduced from columns {0,1}.
	for r := 0; r < 4; r++ {
		holder := 0
		if r >= 2 {
			holder = 1
		}
		for i, s := range out {
			if i == holder {
				if !s.Get(r, 0) || !s.Get(r, 1) {
					t.Errorf("device %d should hold reduced row %d", i, r)
				}
			} else if !s.RowEmpty(r) {
				t.Errorf("device %d should not hold row %d", i, r)
			}
		}
	}
}

func TestReduceFig8(t *testing.T) {
	out, err := Apply(Reduce, initialPair())
	if err != nil {
		t.Fatal(err)
	}
	if out[0].PopCount() != 8 {
		t.Errorf("root popcount = %d, want 8", out[0].PopCount())
	}
	if out[1].PopCount() != 0 {
		t.Errorf("non-root popcount = %d, want 0", out[1].PopCount())
	}
}

func TestAllGatherAfterReduceScatter(t *testing.T) {
	rs, err := Apply(ReduceScatter, initialPair())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Apply(AllGather, rs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if s.NumRows() != 4 {
			t.Errorf("device %d has %d rows after gather, want 4", i, s.NumRows())
		}
		for r := 0; r < 4; r++ {
			if !s.Get(r, 0) || !s.Get(r, 1) {
				t.Errorf("device %d row %d missing contributions", i, r)
			}
		}
	}
}

func TestBroadcastAfterReduce(t *testing.T) {
	rd, err := Apply(Reduce, initialPair())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Apply(Broadcast, rd)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(out[1]) {
		t.Error("broadcast left devices unequal")
	}
	if out[1].PopCount() != 8 {
		t.Errorf("receiver popcount = %d", out[1].PopCount())
	}
}

func TestFigure4aInvalid(t *testing.T) {
	// Fig. 4a: ReduceScatter over {A0,A1} then AllReduce over {A0,A1}
	// reduces the two halves together — must be rejected (rows differ).
	rs, err := Apply(ReduceScatter, initialPair())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Apply(AllReduce, rs)
	if !errors.Is(err, ErrRowMismatch) {
		t.Errorf("got %v, want ErrRowMismatch", err)
	}
}

func TestFigure4bInvalid(t *testing.T) {
	// Fig. 4b: AllReduce twice over the same pair reduces the same data
	// twice — must be rejected (overlap).
	ar, err := Apply(AllReduce, initialPair())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Apply(AllReduce, ar)
	if !errors.Is(err, ErrOverlap) {
		t.Errorf("got %v, want ErrOverlap", err)
	}
}

func TestBroadcastRequiresGain(t *testing.T) {
	ar, err := Apply(AllReduce, initialPair())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Apply(Broadcast, ar)
	if !errors.Is(err, ErrNoGain) {
		t.Errorf("got %v, want ErrNoGain", err)
	}
}

func TestBroadcastRequiresSuperset(t *testing.T) {
	// Receiver holds data the source lacks.
	src := InitialState(4, 0)
	dst := InitialState(4, 1)
	_, err := Apply(Broadcast, []*State{src, dst})
	if !errors.Is(err, ErrNotPrefix) {
		t.Errorf("got %v, want ErrNotPrefix", err)
	}
}

func TestReduceScatterDivisibility(t *testing.T) {
	// 4 chunks over a 3-device group: not divisible.
	states := []*State{InitialState(4, 0), InitialState(4, 1), InitialState(4, 2)}
	_, err := Apply(ReduceScatter, states)
	if !errors.Is(err, ErrNotDivisible) {
		t.Errorf("got %v, want ErrNotDivisible", err)
	}
}

func TestAllGatherChecks(t *testing.T) {
	// Same row sets: overlap.
	_, err := Apply(AllGather, initialPair())
	if !errors.Is(err, ErrRowSetsOverlap) {
		t.Errorf("got %v, want ErrRowSetsOverlap", err)
	}
	// Different row counts.
	a := NewState(4)
	a.Set(0, 0)
	a.Set(1, 0)
	b := NewState(4)
	b.Set(2, 1)
	_, err = Apply(AllGather, []*State{a, b})
	if !errors.Is(err, ErrRowCountMismatch) {
		t.Errorf("got %v, want ErrRowCountMismatch", err)
	}
}

func TestEmptyGroupsRejected(t *testing.T) {
	if _, err := Apply(AllReduce, []*State{InitialState(4, 0)}); !errors.Is(err, ErrGroupTooSmall) {
		t.Error("singleton group accepted")
	}
	empty := []*State{NewState(4), NewState(4)}
	for _, op := range []Op{AllReduce, Reduce, ReduceScatter, AllGather} {
		if _, err := Apply(op, empty); !errors.Is(err, ErrNoData) {
			t.Errorf("%v over empty states: got %v, want ErrNoData", op, err)
		}
	}
}

func TestApplyDoesNotMutateInputs(t *testing.T) {
	in := initialPair()
	before0, before1 := clone(in[0]), clone(in[1])
	if _, err := Apply(AllReduce, in); err != nil {
		t.Fatal(err)
	}
	if !in[0].Equal(before0) || !in[1].Equal(before1) {
		t.Error("Apply mutated its inputs")
	}
}

func TestFourWayAllReduceReachesGoal(t *testing.T) {
	states := make([]*State, 4)
	for i := range states {
		states[i] = InitialState(4, i)
	}
	out, err := Apply(AllReduce, states)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if s.PopCount() != s.k*s.k {
			t.Errorf("device %d not full after 4-way AllReduce", i)
		}
	}
}

func TestReduceScatterAllReduceAllGatherPipeline(t *testing.T) {
	// The paper's program (ii) shape on a 4-universe split 2 (local) × 2
	// (remote): RS within {0,1} and {2,3}, AR across {0,2} and {1,3},
	// AG within {0,1} and {2,3} reaches the goal.
	st := make([]*State, 4)
	for i := range st {
		st[i] = InitialState(4, i)
	}
	apply2 := func(op Op, a, b int) {
		t.Helper()
		out, err := Apply(op, []*State{st[a], st[b]})
		if err != nil {
			t.Fatalf("%v over {%d,%d}: %v", op, a, b, err)
		}
		st[a], st[b] = out[0], out[1]
	}
	apply2(ReduceScatter, 0, 1)
	apply2(ReduceScatter, 2, 3)
	apply2(AllReduce, 0, 2)
	apply2(AllReduce, 1, 3)
	apply2(AllGather, 0, 1)
	apply2(AllGather, 2, 3)
	for i, s := range st {
		if s.PopCount() != s.k*s.k {
			t.Errorf("device %d not full:\n%v", i, s)
		}
	}
}

func TestReduceAllReduceBroadcastPipeline(t *testing.T) {
	// The paper's program (i): Reduce locally to roots, AllReduce across
	// roots, Broadcast locally.
	st := make([]*State, 4)
	for i := range st {
		st[i] = InitialState(4, i)
	}
	apply2 := func(op Op, a, b int) {
		t.Helper()
		out, err := Apply(op, []*State{st[a], st[b]})
		if err != nil {
			t.Fatalf("%v over {%d,%d}: %v", op, a, b, err)
		}
		st[a], st[b] = out[0], out[1]
	}
	apply2(Reduce, 0, 1)
	apply2(Reduce, 2, 3)
	apply2(AllReduce, 0, 2)
	apply2(Broadcast, 0, 1)
	apply2(Broadcast, 2, 3)
	for i, s := range st {
		if s.PopCount() != s.k*s.k {
			t.Errorf("device %d not full:\n%v", i, s)
		}
	}
}

func TestOpStringAndParse(t *testing.T) {
	for _, op := range Ops {
		back, err := ParseOp(op.String())
		if err != nil || back != op {
			t.Errorf("ParseOp(%v.String()) = %v, %v", op, back, err)
		}
	}
	if _, err := ParseOp("allreduce"); err == nil {
		t.Error("lowercase op name accepted")
	}
	if got := Op(99).String(); got != "Op(99)" {
		t.Errorf("unknown op String = %q", got)
	}
}

func TestInformationNeverLostQuick(t *testing.T) {
	// Property: for any op that succeeds on random same-shape states, the
	// union of all output states contains the union of all input states.
	f := func(seed uint64, opRaw uint8) bool {
		op := Ops[int(opRaw)%len(Ops)]
		in := []*State{randomState(8, seed), randomState(8, seed*3+1)}
		out, err := Apply(op, in)
		if err != nil {
			return true // precondition failed; nothing to check
		}
		uin := clone(in[0])
		uin.unionInto(in[1])
		uout := clone(out[0])
		uout.unionInto(out[1])
		return uin.SubsetOf(uout)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAllReduceSymmetricQuick(t *testing.T) {
	// Property: AllReduce output is identical for every group member and
	// equals the union of inputs.
	f := func(seedA, seedB uint64) bool {
		a := InitialState(6, int(seedA%6))
		b := InitialState(6, int(seedB%6))
		if int(seedA%6) == int(seedB%6) {
			return true
		}
		out, err := Apply(AllReduce, []*State{a, b})
		if err != nil {
			return false
		}
		u := clone(a)
		u.unionInto(b)
		return out[0].Equal(out[1]) && out[0].Equal(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckMatchesApply(t *testing.T) {
	// Property: Check errs exactly when Apply errs, with the same error.
	f := func(seedA, seedB uint64, opRaw uint8) bool {
		op := Ops[int(opRaw)%len(Ops)]
		in := []*State{randomState(6, seedA), randomState(6, seedB)}
		errC := Check(op, in)
		_, errA := Apply(op, in)
		return errors.Is(errA, errC) || (errA == nil && errC == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
