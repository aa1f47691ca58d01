package collective

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInitialState(t *testing.T) {
	s := InitialState(4, 2)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			want := c == 2
			if s.Get(r, c) != want {
				t.Errorf("InitialState(4,2).Get(%d,%d) = %v, want %v", r, c, s.Get(r, c), want)
			}
		}
	}
	if got := s.Rows(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("Rows = %v", got)
	}
	if s.PopCount() != 4 {
		t.Errorf("PopCount = %d", s.PopCount())
	}
}

// fullState is the all-ones goal state.
func fullState(k int) *State {
	s := NewState(k)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			s.Set(r, c)
		}
	}
	return s
}

func TestFullState(t *testing.T) {
	s := fullState(5)
	if !s.IsFull() {
		t.Error("all-ones state not full")
	}
	if s.PopCount() != 25 {
		t.Errorf("PopCount = %d", s.PopCount())
	}
	if InitialState(5, 0).IsFull() {
		t.Error("initial state reported full")
	}
}

func TestSetGetLargeK(t *testing.T) {
	// k > 64 exercises multi-word rows.
	s := NewState(100)
	s.Set(99, 99)
	s.Set(0, 64)
	s.Set(50, 63)
	if !s.Get(99, 99) || !s.Get(0, 64) || !s.Get(50, 63) {
		t.Error("set bits not readable")
	}
	if s.Get(99, 98) || s.Get(1, 64) {
		t.Error("unset bits readable")
	}
	if s.PopCount() != 3 {
		t.Errorf("PopCount = %d", s.PopCount())
	}
}

func TestRowsAndNumRows(t *testing.T) {
	s := NewState(6)
	s.Set(1, 3)
	s.Set(4, 0)
	s.Set(4, 5)
	if got := s.Rows(); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("Rows = %v", got)
	}
	if s.NumRows() != 2 {
		t.Errorf("NumRows = %d", s.NumRows())
	}
	if s.RowPopCount(4) != 2 {
		t.Errorf("RowPopCount(4) = %d", s.RowPopCount(4))
	}
}

func TestCloneIndependence(t *testing.T) {
	s := InitialState(4, 1)
	c := s.Clone()
	c.Set(0, 0)
	if s.Get(0, 0) {
		t.Error("Clone shares storage")
	}
	if !c.Get(0, 1) {
		t.Error("Clone lost bits")
	}
}

func TestSubsetRelations(t *testing.T) {
	a := InitialState(4, 0)
	b := a.Clone()
	b.Set(0, 1)
	if !a.SubsetOf(b) || a.Equal(b) {
		t.Error("a should be strict subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b is not subset of a")
	}
	if !a.SubsetOf(a) || !a.Equal(a) {
		t.Error("reflexivity broken")
	}
}

func TestEqualDifferentK(t *testing.T) {
	if NewState(4).Equal(NewState(5)) {
		t.Error("states of different k reported equal")
	}
	if NewState(4).SubsetOf(NewState(5)) {
		t.Error("subset across different k")
	}
}

func TestStringRendering(t *testing.T) {
	s := NewState(2)
	s.Set(0, 1)
	if got := s.String(); got != ".#\n.." {
		t.Errorf("String = %q", got)
	}
}

func TestSubsetTransitivityQuick(t *testing.T) {
	// Property: union is an upper bound — s ⊆ s∪o for random states.
	f := func(seedA, seedB uint64) bool {
		a, b := randomState(8, seedA), randomState(8, seedB)
		u := a.Clone()
		u.unionInto(b)
		return a.SubsetOf(u) && b.SubsetOf(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomState builds a deterministic pseudo-random state from a seed.
func randomState(k int, seed uint64) *State {
	s := NewState(k)
	x := seed | 1
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&3 == 0 {
				s.Set(r, c)
			}
		}
	}
	return s
}

func TestStatePanicsOutOfRange(t *testing.T) {
	s := NewState(4)
	for _, fn := range []func(){
		func() { s.Set(4, 0) },
		func() { s.Set(0, -1) },
		func() { s.Get(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestSealedStateMatchesBits: the mask row every writer maintains, and every
// predicate that reads it, must equal the recomputation from the matrix bits
// — on states built by Set, by Clone, and by each post-condition of Apply,
// for one-word and multi-word rows. Sealing fixes the hash (equal states
// hash equally) and turns Set into a panic.
func TestSealedStateMatchesBits(t *testing.T) {
	// The slow definitions, straight off Get.
	rowEmpty := func(s *State, r int) bool {
		for c := 0; c < s.K(); c++ {
			if s.Get(r, c) {
				return false
			}
		}
		return true
	}
	check := func(name string, s, o *State) {
		t.Helper()
		var rows []int
		same, disjoint := true, true
		for r := 0; r < s.K(); r++ {
			if s.RowEmpty(r) != rowEmpty(s, r) {
				t.Errorf("%s: RowEmpty(%d) = %v, bits say %v", name, r, s.RowEmpty(r), rowEmpty(s, r))
			}
			if !rowEmpty(s, r) {
				rows = append(rows, r)
			}
			same = same && rowEmpty(s, r) == rowEmpty(o, r)
			disjoint = disjoint && (rowEmpty(s, r) || rowEmpty(o, r))
		}
		if got := s.Rows(); len(got) != len(rows) || len(rows) > 0 && !reflect.DeepEqual(got, rows) {
			t.Errorf("%s: Rows = %v, bits say %v", name, got, rows)
		}
		if s.NumRows() != len(rows) {
			t.Errorf("%s: NumRows = %d, bits say %d", name, s.NumRows(), len(rows))
		}
		if s.sameRowSet(o) != same {
			t.Errorf("%s: sameRowSet = %v, bits say %v", name, s.sameRowSet(o), same)
		}
		if s.rowSetsDisjoint(o) != disjoint {
			t.Errorf("%s: rowSetsDisjoint = %v, bits say %v", name, s.rowSetsDisjoint(o), disjoint)
		}
	}
	for _, k := range []int{6, 64, 70} {
		for seed := uint64(1); seed <= 20; seed++ {
			a, b := randomState(k, seed), randomState(k, seed*977)
			// Sparse rows, so that empty ones occur at every k.
			sparse := NewState(k)
			for r := 0; r < k; r += int(seed%5) + 2 {
				sparse.Set(r, (r*7+int(seed))%k)
			}
			check(fmt.Sprintf("k=%d seed=%d random", k, seed), a, b)
			check(fmt.Sprintf("k=%d seed=%d sparse", k, seed), sparse, a)
			check(fmt.Sprintf("k=%d seed=%d clone", k, seed), sparse.Clone(), sparse)
		}
		group := make([]*State, 2)
		for i := range group {
			group[i] = InitialState(k, i)
		}
		for _, op := range []Op{AllReduce, Reduce, ReduceScatter} {
			out, err := Apply(op, group)
			if err != nil {
				t.Fatalf("k=%d %v: %v", k, op, err)
			}
			for i, s := range out {
				check(fmt.Sprintf("k=%d %v out[%d]", k, op, i), s, out[0])
				if !s.sealed {
					t.Errorf("k=%d %v out[%d] is not sealed", k, op, i)
				}
			}
			if op != ReduceScatter {
				continue
			}
			gathered, err := Apply(AllGather, out)
			if err != nil {
				t.Fatalf("k=%d AllGather: %v", k, err)
			}
			check(fmt.Sprintf("k=%d AllGather", k), gathered[0], out[1])
		}
	}

	s := randomState(8, 3)
	if c := s.Clone().Seal(); c.Hash() != s.Clone().Seal().Hash() || !c.Equal(s) {
		t.Error("equal states seal to different hashes")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Hash of an unsealed state did not panic")
			}
		}()
		s.Hash()
	}()
	s.Seal()
	if c := s.Clone(); c.sealed {
		t.Error("Clone of a sealed state is sealed")
	}
	defer func() {
		if recover() == nil {
			t.Error("Set on a sealed state did not panic")
		}
	}()
	s.Set(0, 0)
}
