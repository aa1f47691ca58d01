package hierarchy_test

import (
	"fmt"
	"strings"
	"testing"

	"p2/internal/hierarchy"
	"p2/internal/placement"
	"p2/internal/synth"
)

func mustM(t *testing.T, hier, axes []int, rows [][]int) *placement.Matrix {
	t.Helper()
	m, err := placement.NewMatrix(hier, axes, rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSignatureSharedAcrossPlacements: placements whose reduction-axis
// rows induce the same hierarchy (after unit-level dropping) must share a
// signature even though their physical leaves differ.
func TestSignatureSharedAcrossPlacements(t *testing.T) {
	hier := []int{4, 8, 8}
	axes := []int{16, 16}
	// Reduce-axis rows [1 2 8] and [2 1 8] both drop to sizes [2 8].
	a := mustM(t, hier, axes, [][]int{{1, 2, 8}, {4, 4, 1}})
	b := mustM(t, hier, axes, [][]int{{2, 1, 8}, {2, 8, 1}})
	// Row [1 4 4] drops to [4 4]: a different hierarchy.
	c := mustM(t, hier, axes, [][]int{{1, 4, 4}, {4, 2, 2}})

	ha := hierarchy.MustBuild(hierarchy.KindReductionAxes, a, []int{0}, hierarchy.Options{})
	hb := hierarchy.MustBuild(hierarchy.KindReductionAxes, b, []int{0}, hierarchy.Options{})
	hc := hierarchy.MustBuild(hierarchy.KindReductionAxes, c, []int{0}, hierarchy.Options{})

	if ha.Signature() != hb.Signature() {
		t.Errorf("signatures differ for equal reduction hierarchies:\n%s\n%s",
			ha.Signature(), hb.Signature())
	}
	if ha.Signature() == hc.Signature() {
		t.Errorf("distinct hierarchies %v and %v share signature %s", ha, hc, ha.Signature())
	}
}

// TestSignatureImpliesSamePrograms is the soundness property the planner
// memo relies on: equal signatures must yield identical synthesis
// results.
func TestSignatureImpliesSamePrograms(t *testing.T) {
	hier := []int{4, 8, 8}
	axes := []int{16, 16}
	type cfg struct {
		rows [][]int
		red  []int
	}
	cfgs := []cfg{
		{[][]int{{1, 2, 8}, {4, 4, 1}}, []int{0}},
		{[][]int{{2, 1, 8}, {2, 8, 1}}, []int{0}},
		{[][]int{{2, 8, 1}, {2, 1, 8}}, []int{0}},
		{[][]int{{1, 4, 4}, {4, 2, 2}}, []int{0}},
		{[][]int{{4, 4, 1}, {1, 2, 8}}, []int{1}},
	}
	bySig := map[string]string{}
	for _, c := range cfgs {
		m := mustM(t, hier, axes, c.rows)
		h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, c.red, hierarchy.Options{})
		progs := ""
		for _, p := range synth.Synthesize(h, synth.Options{MaxSize: 3}).Programs {
			progs += p.String() + "\n"
		}
		if prev, ok := bySig[h.Signature()]; ok {
			if prev != progs {
				t.Errorf("rows %v red %v: same signature, different programs", c.rows, c.red)
			}
		} else {
			bySig[h.Signature()] = progs
		}
	}
	if len(bySig) < 2 {
		t.Fatalf("test is vacuous: only %d distinct signatures", len(bySig))
	}
}

// TestSignatureDistinguishesReductionLevels: hierarchies with equal sizes
// but different reduction-level flags must not collide (their admissible
// instruction sets differ).
func TestSignatureDistinguishesReductionLevels(t *testing.T) {
	m := mustM(t, []int{1, 2, 2, 4}, []int{4, 4}, [][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	hSys := hierarchy.MustBuild(hierarchy.KindSystem, m, []int{1}, hierarchy.Options{})
	hRow := hierarchy.MustBuild(hierarchy.KindRowBased, m, []int{1}, hierarchy.Options{})
	if hSys.Signature() == hRow.Signature() {
		// Only a problem when their synthesis output could differ; sizes
		// or flags or groups must separate them.
		t.Errorf("system and row-based hierarchies share signature %s", hSys.Signature())
	}
}

// TestSignatureFormatPinned holds the signature byte-identical to its
// original fmt-built form (it is the planner's memo key): sizes, flags and
// groups rendered with %d, across every hierarchy kind, collapsing, and a
// universe large enough for three-digit leaf indices.
func TestSignatureFormatPinned(t *testing.T) {
	want := func(h *hierarchy.Hierarchy) string {
		var b strings.Builder
		b.WriteString("s:")
		for i, s := range h.Sizes {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", s)
		}
		b.WriteString("|r:")
		for _, r := range h.ReductionLevel {
			if r {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteString("|g:")
		for _, g := range h.Groups {
			for i, u := range g {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", u)
			}
			b.WriteByte(';')
		}
		return b.String()
	}
	small := mustM(t, []int{1, 2, 2, 4}, []int{4, 4}, [][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	big := mustM(t, []int{4, 8, 8}, []int{128, 2}, [][]int{{4, 4, 8}, {1, 2, 1}})
	multi := mustM(t, []int{4, 16}, []int{16, 2, 2}, [][]int{{2, 8}, {2, 1}, {1, 2}})
	for _, kind := range hierarchy.Kinds {
		h := hierarchy.MustBuild(kind, small, []int{1}, hierarchy.Options{})
		if got := h.Signature(); got != want(h) {
			t.Errorf("%v: signature %q, want %q", kind, got, want(h))
		}
	}
	for _, h := range []*hierarchy.Hierarchy{
		hierarchy.MustBuild(hierarchy.KindReductionAxes, big, []int{0}, hierarchy.Options{}),
		hierarchy.MustBuild(hierarchy.KindReductionAxes, multi, []int{0, 2}, hierarchy.Options{Collapse: true}),
		hierarchy.MustBuild(hierarchy.KindReductionAxes, multi, []int{0, 2}, hierarchy.Options{KeepUnitLevels: true}),
	} {
		if got := h.Signature(); got != want(h) {
			t.Errorf("%v: signature %q, want %q", h, got, want(h))
		}
	}
}
