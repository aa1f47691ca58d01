package lower

import (
	"reflect"
	"strings"
	"testing"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/placement"
	"p2/internal/synth"
)

func fig2dHierarchy(t *testing.T) *hierarchy.Hierarchy {
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

func TestLowerBaselineAllReduce(t *testing.T) {
	h := fig2dHierarchy(t)
	lp, err := Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Steps) != 1 {
		t.Fatalf("steps = %d", len(lp.Steps))
	}
	st := lp.Steps[0]
	if st.Op != collective.AllReduce {
		t.Errorf("op = %v", st.Op)
	}
	if len(st.Groups) != 4 || st.GroupSize() != 4 {
		t.Errorf("groups = %v", st.Groups)
	}
	if st.Rows != 4 || st.RowsOut != 4 || st.K != 4 {
		t.Errorf("chunks: rows=%d rowsOut=%d k=%d", st.Rows, st.RowsOut, st.K)
	}
	if err := lp.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Groups must be the physical reduction groups of the placement.
	m, _ := placement.NewMatrix([]int{1, 2, 2, 4}, []int{4, 4},
		[][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	want := m.ReductionGroups([]int{1})
	got := append([][]int(nil), st.Groups...)
	sortByFirst := func(gs [][]int) {
		for i := 1; i < len(gs); i++ {
			for j := i; j > 0 && gs[j-1][0] > gs[j][0]; j-- {
				gs[j-1], gs[j] = gs[j], gs[j-1]
			}
		}
	}
	sortByFirst(want)
	sortByFirst(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lowered groups %v, want reduction groups %v", got, want)
	}
}

func TestLowerChunkAccounting(t *testing.T) {
	// RS-AR-AG over the [2 2] universe: fractions 1 → 1/2 → 1/2 → 1.
	h := fig2dHierarchy(t)
	p := dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
		{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllGather},
	}
	lp, err := Lower(p, h)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := [][2]int{{4, 2}, {2, 2}, {2, 4}}
	for i, st := range lp.Steps {
		if st.Rows != wantRows[i][0] || st.RowsOut != wantRows[i][1] {
			t.Errorf("step %d: rows %d→%d, want %d→%d",
				i, st.Rows, st.RowsOut, wantRows[i][0], wantRows[i][1])
		}
	}
	if lp.Steps[0].FracIn() != 1.0 || lp.Steps[1].FracIn() != 0.5 {
		t.Error("FracIn wrong")
	}
	if st := lp.Steps[2]; st.RowsOut != st.K {
		t.Error("final step does not end at the full payload")
	}
}

func TestLowerReduceKeepsRootRows(t *testing.T) {
	h := fig2dHierarchy(t)
	p := dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.Reduce},
		{Slice: 1, Form: dsl.Master, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.Broadcast},
	}
	lp, err := Lower(p, h)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Steps[0].RowsOut != 4 {
		t.Errorf("Reduce RowsOut = %d, want root's 4", lp.Steps[0].RowsOut)
	}
	// Master step: only half the groups (one per ancestor per replica).
	if len(lp.Steps[1].Groups) != 4 {
		t.Errorf("master step groups = %d, want 4 (one per replica)", len(lp.Steps[1].Groups))
	}
	if len(lp.Steps[0].Groups) != 8 {
		t.Errorf("reduce step groups = %d, want 8", len(lp.Steps[0].Groups))
	}
}

func TestLowerInvalidProgramFails(t *testing.T) {
	h := fig2dHierarchy(t)
	p := dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllReduce},
	}
	if _, err := Lower(p, h); err == nil {
		t.Error("semantically invalid program lowered successfully")
	}
}

func TestLowerAllSynthesizedValidate(t *testing.T) {
	h := fig2dHierarchy(t)
	res := synth.Synthesize(h, synth.Options{})
	for _, p := range res.Programs {
		lp, err := Lower(p, h)
		if err != nil {
			t.Fatalf("Lower(%v): %v", p, err)
		}
		if err := lp.Validate(); err != nil {
			t.Errorf("%v: %v", p, err)
		}
		if lp.NumDevices != 16 {
			t.Errorf("%v: NumDevices = %d", p, lp.NumDevices)
		}
	}
}

func TestKeyDistinguishesPrograms(t *testing.T) {
	h := fig2dHierarchy(t)
	res := synth.Synthesize(h, synth.Options{})
	keys := map[string]string{}
	for _, p := range res.Programs {
		lp, err := Lower(p, h)
		if err != nil {
			t.Fatal(err)
		}
		k := string(lp.AppendKey(nil))
		if prev, ok := keys[k]; ok {
			t.Logf("programs %v and %v share key (may be genuinely equivalent)", prev, p)
		}
		keys[k] = p.String()
	}
	if len(keys) < 3 {
		t.Errorf("only %d distinct lowered keys", len(keys))
	}
}

func TestStringRendering(t *testing.T) {
	h := fig2dHierarchy(t)
	lp, err := Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		t.Fatal(err)
	}
	s := lp.String()
	if !strings.Contains(s, "AllReduce") || !strings.Contains(s, "g=4") {
		t.Errorf("String = %q", s)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	h := fig2dHierarchy(t)
	lp, err := Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		t.Fatal(err)
	}
	bad := *lp
	bad.Steps = nil
	if bad.Validate() == nil {
		t.Error("empty program validated")
	}
	lp2, _ := Lower(synth.BaselineAllReduce(), h)
	lp2.Steps[0].Groups[0][0] = 99
	if lp2.Validate() == nil {
		t.Error("out-of-range device validated")
	}
	lp3, _ := Lower(synth.BaselineAllReduce(), h)
	lp3.Steps[0].Groups[0] = lp3.Steps[0].Groups[1]
	if lp3.Validate() == nil {
		t.Error("duplicated group validated")
	}
	lp4, _ := Lower(synth.BaselineAllReduce(), h)
	lp4.Steps[0].Rows = 0
	if lp4.Validate() == nil {
		t.Error("zero rows validated")
	}
}

func TestLowerMultiAxisReplication(t *testing.T) {
	// [4 16] axes [16 2 2], reduce {0,2}: universe 32, replicas 2. Every
	// lowered step must have group count divisible by the replica count.
	m, err := placement.NewMatrix([]int{4, 16}, []int{16, 2, 2},
		[][]int{{2, 8}, {2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0, 2},
		hierarchy.Options{Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	res := synth.Synthesize(h, synth.Options{MaxSize: 3})
	if len(res.Programs) == 0 {
		t.Fatal("no programs")
	}
	for _, p := range res.Programs {
		lp, err := Lower(p, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := lp.Validate(); err != nil {
			t.Errorf("%v: %v", p, err)
		}
		for i, st := range lp.Steps {
			if len(st.Groups)%h.Replicas() != 0 {
				t.Errorf("%v step %d: %d groups not divisible by %d replicas",
					p, i, len(st.Groups), h.Replicas())
			}
		}
	}
}

// multiAxisHierarchy is a replicated universe: [4 16] axes [16 2 2] reduced
// over {0,2} — 32 leaves, 2 replicas.
func multiAxisHierarchy(t *testing.T) *hierarchy.Hierarchy {
	t.Helper()
	m, err := placement.NewMatrix([]int{4, 16}, []int{16, 2, 2},
		[][]int{{2, 8}, {2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0, 2},
		hierarchy.Options{Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAnnotateShapes(t *testing.T) {
	h := fig2dHierarchy(t)
	shapes, err := Annotate(dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
		{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllGather},
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	if want := []dsl.Shape{{Rows: 4, RowsOut: 2}, {Rows: 2, RowsOut: 2}, {Rows: 2, RowsOut: 4}}; !reflect.DeepEqual(shapes, want) {
		t.Errorf("shapes = %v, want %v", shapes, want)
	}
	// Reduce reports the root's rows out, Broadcast the source's rows in.
	shapes, err = Annotate(dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.Reduce},
		{Slice: 1, Form: dsl.Master, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.Broadcast},
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	if want := []dsl.Shape{{Rows: 4, RowsOut: 4}, {Rows: 4, RowsOut: 4}, {Rows: 4, RowsOut: 4}}; !reflect.DeepEqual(shapes, want) {
		t.Errorf("reduce/broadcast shapes = %v, want %v", shapes, want)
	}
}

// TestAnnotateErrorNamesStep: a semantic failure names the failing step and
// wraps the collective's sentinel, exactly as Lower reports it.
func TestAnnotateErrorNamesStep(t *testing.T) {
	h := fig2dHierarchy(t)
	p := dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllReduce},
	}
	_, aerr := Annotate(p, h)
	if aerr == nil || !strings.Contains(aerr.Error(), "lower: step 1:") {
		t.Fatalf("Annotate error = %v, want one naming step 1", aerr)
	}
	if _, lerr := Lower(p, h); lerr == nil || lerr.Error() != aerr.Error() {
		t.Errorf("Lower error %v, Annotate error %v", lerr, aerr)
	}
}

// TestBindGroups pins Bind's contract on a replicated universe: every leaf
// group appears once per replica with its member order kept (the first
// member stays the root), and groups come in ascending first-device order.
func TestBindGroups(t *testing.T) {
	h := multiAxisHierarchy(t)
	for _, in := range synth.Candidates(h) {
		got := Bind(in, h)
		leafGroups := in.Groups(h)
		if len(got) != len(leafGroups)*h.Replicas() {
			t.Fatalf("%v: %d groups, want %d", in, len(got), len(leafGroups)*h.Replicas())
		}
		want := map[int][]int{} // by first device
		for r := 0; r < h.Replicas(); r++ {
			for _, g := range leafGroups {
				pg := make([]int, len(g))
				for i, u := range g {
					pg[i] = h.Device(u, r)
				}
				want[pg[0]] = pg
			}
		}
		for i, g := range got {
			if i > 0 && got[i-1][0] >= g[0] {
				t.Errorf("%v: groups not ascending by first device at %d", in, i)
			}
			if !reflect.DeepEqual(g, want[g[0]]) {
				t.Errorf("%v: group %v, want %v", in, g, want[g[0]])
			}
		}
	}
}

// TestLowerIsAnnotateBindAssemble: Lower is exactly its three parts, and
// Assemble hands out whatever slices its group source returns — the
// planner's per-placement binding table aliases one binding across steps.
func TestLowerIsAnnotateBindAssemble(t *testing.T) {
	h := multiAxisHierarchy(t)
	table := map[dsl.Instruction][][]int{}
	groups := func(in dsl.Instruction) [][]int {
		if _, ok := table[in]; !ok {
			table[in] = Bind(in, h)
		}
		return table[in]
	}
	for _, p := range synth.Synthesize(h, synth.Options{MaxSize: 3}).Programs {
		want, err := Lower(p, h)
		if err != nil {
			t.Fatal(err)
		}
		shapes, err := Annotate(p, h)
		if err != nil {
			t.Fatal(err)
		}
		got := Assemble(p, h, func(i int) ([][]int, dsl.Shape) { return groups(p[i]), shapes[i] })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Assemble(Annotate, Bind) differs from Lower", p)
		}
		for i, in := range p {
			if &got.Steps[i].Groups[0] != &table[in][0] {
				t.Errorf("%v step %d: groups copied, want the table's slices", p, i)
			}
		}
	}
}

// TestAppendBindWarm: binding every candidate of a replicated universe
// into storage a first pass grew allocates nothing, and each instruction's
// groups equal a fresh Bind's.
func TestAppendBindWarm(t *testing.T) {
	h := multiAxisHierarchy(t)
	cands := synth.Candidates(h)
	var phys [][]int
	var flat []int
	bindAll := func() {
		phys, flat = phys[:0], flat[:0]
		for _, in := range cands {
			phys, flat = AppendBind(phys, flat, in, h, h.Replicas())
		}
	}
	bindAll()
	if allocs := testing.AllocsPerRun(10, bindAll); allocs != 0 {
		t.Errorf("a warm bind of %d instructions allocates %v times, want 0", len(cands), allocs)
	}
	for _, in := range cands {
		start := len(phys)
		phys, flat = AppendBind(phys, flat, in, h, h.Replicas())
		if got, want := phys[start:], Bind(in, h); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: AppendBind groups %v, want Bind's %v", in, got, want)
		}
	}
}

// TestAppendBindReplicaZero: binding one replica gives replica 0's groups,
// and shifting them by every replica offset gives Bind's groups — the
// identity the planner scores Ring and Chain steps by.
func TestAppendBindReplicaZero(t *testing.T) {
	h := multiAxisHierarchy(t)
	for _, in := range synth.Candidates(h) {
		zero, _ := AppendBind(nil, nil, in, h, 1)
		want := map[int][]int{} // Bind's groups by first device
		for _, g := range Bind(in, h) {
			want[g[0]] = g
		}
		n := 0
		for _, off := range h.ReplicaOffsets() {
			for _, g := range zero {
				sg := make([]int, len(g))
				for i, d := range g {
					sg[i] = d + off
				}
				if !reflect.DeepEqual(sg, want[sg[0]]) {
					t.Errorf("%v: replica 0 group %v shifted by %d is %v, want %v", in, g, off, sg, want[sg[0]])
				}
				n++
			}
		}
		if n != len(want) {
			t.Errorf("%v: %d shifted groups, Bind has %d", in, n, len(want))
		}
	}
}
