package synth

import (
	"testing"

	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
)

// loweredSet synthesizes with the given hierarchy kind and returns the set
// of lowered-program fingerprints (the (G1,C1)...(Gn,Cn) form of §3.4).
func loweredSet(t *testing.T, kind hierarchy.Kind, m *placement.Matrix, red []int, maxSize int) map[string]bool {
	t.Helper()
	h, err := hierarchy.Build(kind, m, red, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Synthesize(h, Options{MaxSize: maxSize})
	out := map[string]bool{}
	for _, p := range res.Programs {
		lp, err := lower.Lower(p, h)
		if err != nil {
			t.Fatalf("%v: lowering synthesized program %v: %v", kind, p, err)
		}
		out[string(lp.AppendKey(nil))] = true
	}
	return out
}

func subset(a, b map[string]bool) (missing string, ok bool) {
	for k := range a {
		if !b[k] {
			return k, false
		}
	}
	return "", true
}

// TestTheorem32Expressiveness verifies Theorem 3.2 empirically: the sets of
// valid lowered programs satisfy (a) ⊆ (b) ⊆ (c) ⊆ (d) on a collection of
// small placements.
func TestTheorem32Expressiveness(t *testing.T) {
	type cfg struct {
		hier, axes []int
		rows       [][]int
		red        []int
	}
	cfgs := []cfg{
		{[]int{2, 2}, []int{2, 2}, [][]int{{1, 2}, {2, 1}}, []int{0}},
		{[]int{2, 2}, []int{2, 2}, [][]int{{1, 2}, {2, 1}}, []int{1}},
		{[]int{2, 2}, []int{2, 2}, [][]int{{2, 1}, {1, 2}}, []int{0}},
		{[]int{2, 2}, []int{4}, [][]int{{2, 2}}, []int{0}},
		{[]int{2, 4}, []int{4, 2}, [][]int{{2, 2}, {1, 2}}, []int{0}},
		{[]int{2, 4}, []int{4, 2}, [][]int{{1, 4}, {2, 1}}, []int{0}},
		{[]int{2, 4}, []int{4, 2}, [][]int{{1, 4}, {2, 1}}, []int{1}},
		{[]int{2, 4}, []int{2, 2, 2}, [][]int{{2, 1}, {1, 2}, {1, 2}}, []int{0, 2}},
	}
	const maxSize = 4 // keeps the full-universe searches fast
	for _, c := range cfgs {
		m, err := placement.NewMatrix(c.hier, c.axes, c.rows)
		if err != nil {
			t.Fatal(err)
		}
		sets := map[hierarchy.Kind]map[string]bool{}
		for _, kind := range hierarchy.Kinds {
			sets[kind] = loweredSet(t, kind, m, c.red, maxSize)
		}
		order := hierarchy.Kinds
		for i := 1; i < len(order); i++ {
			lo, hi := order[i-1], order[i]
			if missing, ok := subset(sets[lo], sets[hi]); !ok {
				t.Errorf("matrix %v red %v: program of %v missing from %v:\n%s",
					m, c.red, lo, hi, missing)
			}
		}
		if len(sets[hierarchy.KindReductionAxes]) == 0 {
			t.Errorf("matrix %v red %v: reduction hierarchy synthesized nothing", m, c.red)
		}
	}
}

// TestReductionHierarchyStrictlyMoreExpressive reproduces the paper's
// observation that the containments can be strict: for the Fig. 2d
// placement the system hierarchy (a) cannot express any valid reduction
// (its levels always mix reduction groups), while (d) expresses many.
func TestReductionHierarchyStrictlyMoreExpressive(t *testing.T) {
	m, err := placement.NewMatrix([]int{1, 2, 2, 4}, []int{4, 4},
		[][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sysSet := loweredSet(t, hierarchy.KindSystem, m, []int{1}, 3)
	redSet := loweredSet(t, hierarchy.KindReductionAxes, m, []int{1}, 3)
	if len(sysSet) != 0 {
		t.Errorf("system hierarchy unexpectedly synthesized %d programs", len(sysSet))
	}
	if len(redSet) == 0 {
		t.Error("reduction hierarchy synthesized nothing")
	}
}
