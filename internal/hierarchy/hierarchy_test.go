package hierarchy

import (
	"reflect"
	"testing"

	"p2/internal/placement"
	"p2/internal/topology"
)

// fig2dMatrix is the running example: hierarchy [1 2 2 4], axes [4 4],
// matrix [[1 1 2 2] [1 2 1 2]], reduction on axis 1.
func fig2dMatrix(t *testing.T) *placement.Matrix {
	t.Helper()
	m, err := placement.NewMatrix([]int{1, 2, 2, 4}, []int{4, 4},
		[][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTable1Hierarchies(t *testing.T) {
	// Table 1 (first half): for the matrix [[1 1 2 2] [1 2 1 2]] the
	// column-based hierarchy is [1 1 1 2 2 1 2 2], the row-based one is
	// [1 1 2 2 1 2 1 2], and the reduction-axis one (axis 1) is
	// [1 2 1 2]. Unit levels are dropped in our construction, so we
	// compare the non-unit suffixes.
	m := fig2dMatrix(t)
	cases := []struct {
		kind Kind
		opts Options
		want []int // Sizes including the explicit root
	}{
		{KindSystem, Options{}, []int{1, 2, 2, 4}},
		{KindColumnBased, Options{}, []int{1, 2, 2, 2, 2}},
		{KindColumnBased, Options{KeepUnitLevels: true}, []int{1, 1, 1, 1, 2, 2, 1, 2, 2}},
		{KindRowBased, Options{}, []int{1, 2, 2, 2, 2}},
		{KindRowBased, Options{KeepUnitLevels: true}, []int{1, 1, 1, 2, 2, 1, 2, 1, 2}},
		{KindReductionAxes, Options{}, []int{1, 2, 2}},
		{KindReductionAxes, Options{KeepUnitLevels: true}, []int{1, 1, 2, 1, 2}},
	}
	for _, c := range cases {
		h := MustBuild(c.kind, m, []int{1}, c.opts)
		if !reflect.DeepEqual(h.Sizes, c.want) {
			t.Errorf("%v (keep=%v): Sizes = %v, want %v", c.kind, c.opts.KeepUnitLevels, h.Sizes, c.want)
		}
	}
}

func TestTable1Collapsed(t *testing.T) {
	// Table 1 (second half): matrix [[1 2 3][4 5 6][7 8 9]] with reduction
	// axes {0, 2} collapses to [7 16 27] = [1*7 2*8 3*9].
	hier := []int{28, 80, 162}
	axes := []int{6, 120, 504}
	m, err := placement.NewMatrix(hier, axes,
		[][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	h := MustBuild(KindReductionAxes, m, []int{0, 2}, Options{Collapse: true})
	if !reflect.DeepEqual(h.Sizes, []int{1, 7, 16, 27}) {
		t.Errorf("collapsed Sizes = %v, want [1 7 16 27]", h.Sizes)
	}
	// Uncollapsed: [1 2 3 7 8 9].
	h2 := MustBuild(KindReductionAxes, m, []int{0, 2}, Options{})
	if !reflect.DeepEqual(h2.Sizes, []int{1, 2, 3, 7, 8, 9}) {
		t.Errorf("uncollapsed Sizes = %v, want [1 2 3 7 8 9]", h2.Sizes)
	}
	if h.K() != h2.K() {
		t.Errorf("collapse changed universe size: %d vs %d", h.K(), h2.K())
	}
}

func TestFullHierarchiesAreBijections(t *testing.T) {
	m := fig2dMatrix(t)
	for _, kind := range []Kind{KindSystem, KindColumnBased, KindRowBased} {
		h := MustBuild(kind, m, []int{1}, Options{})
		if h.K() != 16 {
			t.Errorf("%v: K = %d, want 16", kind, h.K())
		}
		if h.Replicas() != 1 {
			t.Errorf("%v: Replicas = %d, want 1", kind, h.Replicas())
		}
		seen := map[int]bool{}
		for u := 0; u < h.K(); u++ {
			if len(h.Leaves[u]) != 1 {
				t.Fatalf("%v: leaf %d has %d devices", kind, u, len(h.Leaves[u]))
			}
			d := h.Leaves[u][0]
			if seen[d] {
				t.Fatalf("%v: device %d appears twice", kind, d)
			}
			seen[d] = true
		}
	}
}

func TestSystemHierarchyLeafIsDevice(t *testing.T) {
	// For kind (a) the leaf index equals the physical device id.
	m := fig2dMatrix(t)
	h := MustBuild(KindSystem, m, []int{1}, Options{})
	for u := 0; u < h.K(); u++ {
		if h.Leaves[u][0] != u {
			t.Errorf("leaf %d maps to device %d", u, h.Leaves[u][0])
		}
	}
}

func TestReductionHierarchyLeavesAreGroups(t *testing.T) {
	// For Fig. 2d reducing along axis 1 (shards), the universe is the 4
	// shard coordinates. Leaf u's replicas must be exactly the devices
	// with shard coordinate u, one per batch coordinate.
	m := fig2dMatrix(t)
	h := MustBuild(KindReductionAxes, m, []int{1}, Options{})
	if h.K() != 4 {
		t.Fatalf("K = %d, want 4", h.K())
	}
	if h.Replicas() != 4 {
		t.Fatalf("Replicas = %d, want 4", h.Replicas())
	}
	for u := 0; u < h.K(); u++ {
		for _, dev := range h.Leaves[u] {
			if got := m.AxisCoord(dev, 1); got != u {
				t.Errorf("leaf %d holds device %d with shard coord %d", u, dev, got)
			}
		}
	}
	// Replica r of every leaf shares the same batch coordinate, so the
	// lowered groups {Leaves[u][r] : u} are exactly the reduction groups.
	for r := 0; r < h.Replicas(); r++ {
		batch := m.AxisCoord(h.Leaves[0][r], 0)
		for u := 1; u < h.K(); u++ {
			if got := m.AxisCoord(h.Leaves[u][r], 0); got != batch {
				t.Errorf("replica %d: leaf %d batch %d, want %d", r, u, got, batch)
			}
		}
	}
}

func TestReductionGroupsInLeafSpace(t *testing.T) {
	m := fig2dMatrix(t)
	// Full hierarchies: leaf-space groups must mirror physical groups.
	h := MustBuild(KindRowBased, m, []int{1}, Options{})
	for u := 0; u < h.K(); u++ {
		g := h.Groups[u]
		if len(g) != 4 {
			t.Fatalf("leaf %d group size %d", u, len(g))
		}
		// All members must map to devices in the same physical group.
		dev := h.Leaves[u][0]
		want := m.ReductionGroup(dev, []int{1})
		got := make([]int, len(g))
		for i, lu := range g {
			got[i] = h.Leaves[lu][0]
		}
		if !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
			t.Errorf("leaf %d: group devices %v, want %v", u, got, want)
		}
	}
	// Reduction hierarchy: every leaf groups with all leaves.
	hr := MustBuild(KindReductionAxes, m, []int{1}, Options{})
	for u := 0; u < hr.K(); u++ {
		if len(hr.Groups[u]) != hr.K() {
			t.Errorf("reduction leaf %d group size %d, want %d", u, len(hr.Groups[u]), hr.K())
		}
	}
}

func TestMultiAxisReduction(t *testing.T) {
	// Three axes on [4 16], reduce on {0, 2} as in Table 4 rows H/I.
	m, err := placement.NewMatrix([]int{4, 16}, []int{16, 2, 2},
		[][]int{{2, 8}, {2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	h := MustBuild(KindReductionAxes, m, []int{0, 2}, Options{})
	if h.K() != 32 {
		t.Errorf("K = %d, want 16*2 = 32", h.K())
	}
	if h.Replicas() != 2 {
		t.Errorf("Replicas = %d, want 2 (the non-reduced axis)", h.Replicas())
	}
	// Every replica column must hold a full reduction group.
	for r := 0; r < h.Replicas(); r++ {
		devs := make([]int, h.K())
		for u := 0; u < h.K(); u++ {
			devs[u] = h.Leaves[u][r]
		}
		want := m.ReductionGroup(devs[0], []int{0, 2})
		if !reflect.DeepEqual(sortedCopy(devs), sortedCopy(want)) {
			t.Errorf("replica %d devices != reduction group", r)
		}
	}
}

func TestCollapsedMappingConsistent(t *testing.T) {
	// Collapsed and uncollapsed reduction hierarchies must denote the
	// same leaf→device relation up to leaf relabeling: the multiset of
	// replica lists must match.
	m, err := placement.NewMatrix([]int{4, 16}, []int{16, 2, 2},
		[][]int{{2, 8}, {2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	a := MustBuild(KindReductionAxes, m, []int{0, 2}, Options{})
	b := MustBuild(KindReductionAxes, m, []int{0, 2}, Options{Collapse: true})
	if a.K() != b.K() {
		t.Fatalf("universe sizes differ: %d vs %d", a.K(), b.K())
	}
	seen := map[int]bool{}
	aset := map[int]bool{}
	for u := 0; u < a.K(); u++ {
		aset[a.Leaves[u][0]] = true
	}
	for u := 0; u < b.K(); u++ {
		d := b.Leaves[u][0]
		if seen[d] {
			t.Fatalf("collapsed leaf device %d duplicated", d)
		}
		seen[d] = true
		if !aset[d] {
			t.Errorf("collapsed leaf device %d not in uncollapsed set", d)
		}
	}
}

// refLeaves is the per-replica construction of a reduction hierarchy's
// Leaves: leaf u's reduction-axis coordinates are read off its digits (one
// digit per (axis, level) factor — axis-major, or level-major when
// collapsed; dropped unit levels are digit 0), replica v's free-axis
// coordinates are v in mixed radix over the free axes, and each replica
// is the Device holding those coordinates.
func refLeaves(m *placement.Matrix, red []int, collapse bool) [][]int {
	isRed := make([]bool, m.NumAxes())
	for _, r := range red {
		isRed[r] = true
	}
	var free []int
	replicas := 1
	for i := range m.Axes {
		if !isRed[i] {
			free = append(free, i)
			replicas *= m.Axes[i]
		}
	}
	type pos struct{ axis, level int }
	var order []pos
	if collapse {
		for j := range m.Hier {
			for _, r := range red {
				order = append(order, pos{r, j})
			}
		}
	} else {
		for _, r := range red {
			for j := range m.Hier {
				order = append(order, pos{r, j})
			}
		}
	}
	k := 1
	for _, r := range red {
		k *= m.Axes[r]
	}
	leaves := make([][]int, k)
	coords := make([]int, m.NumAxes())
	for u := range leaves {
		digit := make(map[pos]int, len(order))
		for p, rest := len(order)-1, u; p >= 0; p-- {
			f := m.X[order[p].axis][order[p].level]
			digit[order[p]] = rest % f
			rest /= f
		}
		for _, r := range red {
			coords[r] = 0
			for j := range m.Hier {
				coords[r] = coords[r]*m.X[r][j] + digit[pos{r, j}]
			}
		}
		for v := 0; v < replicas; v++ {
			for i, rest := len(free)-1, v; i >= 0; i-- {
				coords[free[i]] = rest % m.Axes[free[i]]
				rest /= m.Axes[free[i]]
			}
			leaves[u] = append(leaves[u], m.Device(coords))
		}
	}
	return leaves
}

// TestBuildReductionLeaves holds the reduction hierarchy's Leaves to the
// per-replica Device construction on every placement of the determinism
// matrix's shapes, with Collapse on and off.
func TestBuildReductionLeaves(t *testing.T) {
	cases := []struct {
		sys       *topology.System
		axes, red []int
	}{
		{topology.Fig2aSystem(), []int{4, 4}, []int{0}},
		{topology.Fig2aSystem(), []int{2, 2, 4}, []int{0, 2}},
		{topology.A100System(4), []int{4, 16}, []int{0}},
		{topology.A100System(4), []int{16, 2, 2}, []int{0, 2}},
		{topology.SuperPodSystem(2, 4), []int{8, 8}, []int{0}},
		{topology.SuperPodSystem(3, 4), []int{12, 8}, []int{0}},
	}
	for _, tc := range cases {
		ms, err := placement.Enumerate(tc.sys.Hierarchy(), tc.axes)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			for _, collapse := range []bool{false, true} {
				h := MustBuild(KindReductionAxes, m, tc.red, Options{Collapse: collapse})
				if want := refLeaves(m, tc.red, collapse); !reflect.DeepEqual(h.Leaves, want) {
					t.Errorf("%s %v r%v collapse=%v: Leaves = %v, want %v",
						tc.sys.Name, m, tc.red, collapse, h.Leaves, want)
				}
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	m := fig2dMatrix(t)
	if _, err := Build(KindReductionAxes, m, nil, Options{}); err == nil {
		t.Error("empty reduce axes accepted")
	}
	if _, err := Build(KindReductionAxes, m, []int{5}, Options{}); err == nil {
		t.Error("out-of-range axis accepted")
	}
	if _, err := Build(KindReductionAxes, m, []int{1, 1}, Options{}); err == nil {
		t.Error("duplicate axis accepted")
	}
	if _, err := Build(Kind(42), m, []int{1}, Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindString(t *testing.T) {
	wants := map[Kind]string{
		KindSystem:        "system",
		KindColumnBased:   "column-based",
		KindRowBased:      "row-based",
		KindReductionAxes: "reduction-axes",
	}
	for k, w := range wants {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
}

func TestHierarchyString(t *testing.T) {
	m := fig2dMatrix(t)
	h := MustBuild(KindReductionAxes, m, []int{1}, Options{})
	if got := h.String(); got != "[2 2]" {
		t.Errorf("String = %q", got)
	}
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
