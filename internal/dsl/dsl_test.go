package dsl

import (
	"reflect"
	"testing"

	"p2/internal/collective"
	"p2/internal/hierarchy"
	"p2/internal/placement"
)

// fig2aHierarchy builds the system hierarchy of Fig. 2a ([1 2 2 4]) as a
// synthesis hierarchy where every leaf is its own device, so device ids
// match the paper's A0..D3 naming (A=0-3, B=4-7, C=8-11, D=12-15).
func fig2aHierarchy(t *testing.T) *hierarchy.Hierarchy {
	t.Helper()
	m, err := placement.NewMatrix([]int{1, 2, 2, 4}, []int{16}, [][]int{{1, 2, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindSystem, m, []int{0}, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTable2Groups(t *testing.T) {
	h := fig2aHierarchy(t)
	// Level indices after dropping the unit rack level: 0=root(rack),
	// 1=server, 2=CPU, 3=GPU.
	cases := []struct {
		name string
		in   Instruction
		want [][]int
	}{
		{
			"CPU/InsideGroup",
			Instruction{Slice: 2, Form: InsideGroup, Op: collective.AllReduce},
			[][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}},
		},
		{
			"CPU/Parallel(server)",
			Instruction{Slice: 2, Form: Parallel, Arg: 1, Op: collective.AllReduce},
			[][]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}, {8, 12}, {9, 13}, {10, 14}, {11, 15}},
		},
		{
			"CPU/Parallel(rack)",
			Instruction{Slice: 2, Form: Parallel, Arg: 0, Op: collective.AllReduce},
			[][]int{{0, 4, 8, 12}, {1, 5, 9, 13}, {2, 6, 10, 14}, {3, 7, 11, 15}},
		},
		{
			"CPU/Master(rack)",
			Instruction{Slice: 2, Form: Master, Arg: 0, Op: collective.AllReduce},
			[][]int{{0, 4, 8, 12}},
		},
		{
			"server/InsideGroup",
			Instruction{Slice: 1, Form: InsideGroup, Op: collective.AllReduce},
			[][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14, 15}},
		},
		{
			"server/Parallel(rack)",
			Instruction{Slice: 1, Form: Parallel, Arg: 0, Op: collective.AllReduce},
			[][]int{{0, 8}, {1, 9}, {2, 10}, {3, 11}, {4, 12}, {5, 13}, {6, 14}, {7, 15}},
		},
		{
			"rack/InsideGroup",
			Instruction{Slice: 0, Form: InsideGroup, Op: collective.AllReduce},
			[][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		},
	}
	for _, c := range cases {
		got := c.in.Groups(h)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: groups = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestGroupsDisjointAndCovering(t *testing.T) {
	h := fig2aHierarchy(t)
	for slice := 0; slice < h.NumLevels(); slice++ {
		for _, form := range []FormKind{InsideGroup, Parallel, Master} {
			for arg := 0; arg < slice; arg++ {
				in := Instruction{Slice: slice, Form: form, Arg: arg, Op: collective.AllReduce}
				if form == InsideGroup && arg > 0 {
					continue
				}
				if in.Validate(h) != nil {
					continue
				}
				groups := in.Groups(h)
				seen := map[int]bool{}
				for _, g := range groups {
					for _, u := range g {
						if seen[u] {
							t.Fatalf("%v: leaf %d in two groups", in, u)
						}
						seen[u] = true
					}
					if len(g) < 2 {
						t.Fatalf("%v: singleton group %v", in, g)
					}
				}
				if form != Master && len(seen) != h.K() {
					t.Errorf("%v: covers %d of %d leaves", in, len(seen), h.K())
				}
			}
			if form == InsideGroup {
				in := Instruction{Slice: slice, Form: InsideGroup, Op: collective.AllReduce}
				if in.Validate(h) != nil {
					continue
				}
				groups := in.Groups(h)
				total := 0
				for _, g := range groups {
					total += len(g)
				}
				if total != h.K() {
					t.Errorf("%v: covers %d of %d leaves", in, total, h.K())
				}
			}
		}
	}
}

func TestValidate(t *testing.T) {
	h := fig2aHierarchy(t)
	bad := []Instruction{
		{Slice: -1, Form: InsideGroup},
		{Slice: 4, Form: InsideGroup},
		{Slice: 3, Form: InsideGroup},         // leaf slice: singleton groups
		{Slice: 2, Form: Parallel, Arg: 2},    // not a strict ancestor
		{Slice: 2, Form: Parallel, Arg: 3},    // descendant
		{Slice: 1, Form: Master, Arg: -1},     // negative
		{Slice: 1, Form: FormKind(9), Arg: 0}, // unknown form
	}
	for _, in := range bad {
		if err := in.Validate(h); err == nil {
			t.Errorf("Validate(%+v) accepted", in)
		}
	}
	good := []Instruction{
		{Slice: 0, Form: InsideGroup},
		{Slice: 2, Form: Parallel, Arg: 0},
		{Slice: 3, Form: Master, Arg: 2},
	}
	for _, in := range good {
		if err := in.Validate(h); err != nil {
			t.Errorf("Validate(%+v) = %v", in, err)
		}
	}
}

// reductionHierarchy builds the Fig. 2d reduction hierarchy: matrix
// [[1 1 2 2] [1 2 1 2]], reducing axis 1 → synthesis hierarchy [2 2] over
// a 4-leaf universe.
func reductionHierarchy(t *testing.T) *hierarchy.Hierarchy {
	t.Helper()
	m, err := placement.NewMatrix([]int{1, 2, 2, 4}, []int{4, 4},
		[][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{1}, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSingleAllReduceImplementsGoal(t *testing.T) {
	h := reductionHierarchy(t)
	p := Program{{Slice: 0, Form: InsideGroup, Op: collective.AllReduce}}
	if !p.Implements(h) {
		t.Error("global AllReduce does not implement the reduction")
	}
}

func TestFigure3bTwoStepAllReduce(t *testing.T) {
	// Fig. 3b: AllReduce over S0 pairs, then AllReduce across.
	// In the [2 2] synthesis hierarchy (levels root=0, e1=1, e2=2):
	// step 1 = InsideGroup at level 1 (pairs), step 2 = Parallel(0) at
	// slice 1 (cross pairs).
	h := reductionHierarchy(t)
	p := Program{
		{Slice: 1, Form: InsideGroup, Op: collective.AllReduce},
		{Slice: 1, Form: Parallel, Arg: 0, Op: collective.AllReduce},
	}
	if !p.Implements(h) {
		ctx, err := p.Run(h)
		t.Fatalf("AllReduce-AllReduce rejected: err=%v ctx=%v", err, ctx)
	}
}

func TestFigure3cReduceAllReduceBroadcast(t *testing.T) {
	h := reductionHierarchy(t)
	p := Program{
		{Slice: 1, Form: InsideGroup, Op: collective.Reduce},
		{Slice: 1, Form: Master, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: InsideGroup, Op: collective.Broadcast},
	}
	if !p.Implements(h) {
		ctx, err := p.Run(h)
		t.Fatalf("Reduce-AllReduce-Broadcast rejected: err=%v ctx=%v", err, ctx)
	}
}

func TestFigure10iiReduceScatterAllReduceAllGather(t *testing.T) {
	h := reductionHierarchy(t)
	p := Program{
		{Slice: 1, Form: InsideGroup, Op: collective.ReduceScatter},
		{Slice: 1, Form: Parallel, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: InsideGroup, Op: collective.AllGather},
	}
	if !p.Implements(h) {
		ctx, err := p.Run(h)
		t.Fatalf("RS-AR-AG rejected: err=%v ctx=%v", err, ctx)
	}
}

func TestFigure4InvalidPrograms(t *testing.T) {
	h := reductionHierarchy(t)
	// Fig. 4a: ReduceScatter inside pairs then AllReduce inside pairs.
	p := Program{
		{Slice: 1, Form: InsideGroup, Op: collective.ReduceScatter},
		{Slice: 1, Form: InsideGroup, Op: collective.AllReduce},
	}
	if _, err := p.Run(h); err == nil {
		t.Error("Fig. 4a program accepted")
	}
	// Fig. 4b: AllReduce across pairs twice.
	p = Program{
		{Slice: 1, Form: Parallel, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: Parallel, Arg: 0, Op: collective.AllReduce},
	}
	if _, err := p.Run(h); err == nil {
		t.Error("Fig. 4b program accepted")
	}
}

func TestIncompleteProgramNotAtGoal(t *testing.T) {
	h := reductionHierarchy(t)
	p := Program{{Slice: 1, Form: InsideGroup, Op: collective.AllReduce}}
	ctx, err := p.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.AtGoal(h) {
		t.Error("partial reduction reported at goal")
	}
	if p.Implements(h) {
		t.Error("partial program reported as implementation")
	}
}

func TestMasterOnlyLeavesOthersUnchanged(t *testing.T) {
	h := reductionHierarchy(t)
	p := Program{
		{Slice: 1, Form: InsideGroup, Op: collective.Reduce},
		{Slice: 1, Form: Master, Arg: 0, Op: collective.AllReduce},
	}
	ctx, err := p.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	// Leaves 1 and 3 were cleared by Reduce and not touched by Master.
	if ctx[1].PopCount() != 0 || ctx[3].PopCount() != 0 {
		t.Error("non-master leaves changed")
	}
	if full := h.K() * h.K(); ctx[0].PopCount() != full || ctx[2].PopCount() != full {
		t.Error("master group did not reach full state")
	}
}

func TestApplyDoesNotMutateContext(t *testing.T) {
	h := reductionHierarchy(t)
	ctx := NewContext(h)
	saved := make(Context, len(ctx))
	for u, st := range ctx {
		saved[u] = st.Clone()
	}
	in := Instruction{Slice: 0, Form: InsideGroup, Op: collective.AllReduce}
	if _, err := ctx.Apply(in, h); err != nil {
		t.Fatal(err)
	}
	for u := range ctx {
		if !ctx[u].Equal(saved[u]) {
			t.Errorf("Apply mutated leaf %d", u)
		}
	}
}

func TestTargetStateFullHierarchy(t *testing.T) {
	// For a full hierarchy on Fig. 2d (reduce axis 1), the target of a
	// leaf covers only its reduction group's columns.
	m, err := placement.NewMatrix([]int{1, 2, 2, 4}, []int{4, 4},
		[][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindRowBased, m, []int{1}, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < h.K(); u++ {
		tgt := TargetState(h, u)
		if tgt.PopCount() != h.K()*len(h.Groups[u]) {
			t.Errorf("leaf %d target popcount %d", u, tgt.PopCount())
		}
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	p := Program{
		{Slice: 1, Form: InsideGroup, Op: collective.ReduceScatter},
		{Slice: 2, Form: Parallel, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: Master, Arg: 0, Op: collective.Broadcast},
	}
	s := p.String()
	back, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Errorf("round trip: %v != %v", back, p)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"(1, InsideGroup)",
		"(x, InsideGroup, AllReduce)",
		"(1, Sideways, AllReduce)",
		"(1, Parallel(x), AllReduce)",
		"(1, InsideGroup, Nonsense)",
		"1, InsideGroup, AllReduce",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}
