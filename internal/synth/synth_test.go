package synth

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/placement"
)

// fig2d builds the running example: [1 2 2 4] hierarchy, axes [4 4],
// matrix [[1 1 2 2] [1 2 1 2]], reducing axis 1 → synthesis hierarchy
// [2 2] over a 4-leaf universe.
func fig2d(t *testing.T) *hierarchy.Hierarchy {
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

func TestAllSynthesizedProgramsAreValid(t *testing.T) {
	h := fig2d(t)
	res := Synthesize(h, Options{})
	if len(res.Programs) == 0 {
		t.Fatal("no programs synthesized")
	}
	for _, p := range res.Programs {
		if !p.Implements(h) {
			t.Errorf("synthesized program %v does not implement the reduction", p)
		}
		if len(p) > DefaultMaxSize {
			t.Errorf("program %v exceeds size limit", p)
		}
	}
}

func TestProgramsAreDistinct(t *testing.T) {
	h := fig2d(t)
	res := Synthesize(h, Options{})
	seen := map[string]bool{}
	for _, p := range res.Programs {
		s := p.String()
		if seen[s] {
			t.Errorf("duplicate program %s", s)
		}
		seen[s] = true
	}
}

func TestProgramsSortedBySize(t *testing.T) {
	h := fig2d(t)
	res := Synthesize(h, Options{})
	for i := 1; i < len(res.Programs); i++ {
		if len(res.Programs[i-1]) > len(res.Programs[i]) {
			t.Fatal("programs not sorted by size")
		}
	}
	if len(res.Programs[0]) != 1 {
		t.Error("smallest program should be the single-step AllReduce")
	}
}

func TestBaselinePresent(t *testing.T) {
	h := fig2d(t)
	res := Synthesize(h, Options{})
	base := BaselineAllReduce().String()
	found := false
	for _, p := range res.Programs {
		if p.String() == base {
			found = true
		}
	}
	if !found {
		t.Errorf("baseline AllReduce %s not among synthesized programs", base)
	}
}

func TestPaperProgramsPresent(t *testing.T) {
	// The Fig. 3 strategies must be synthesized for the running example.
	h := fig2d(t)
	res := Synthesize(h, Options{})
	wants := []dsl.Program{
		// Fig. 3a: single AllReduce within reduction groups.
		{{Slice: 0, Form: dsl.InsideGroup, Op: collective.AllReduce}},
		// Fig. 3b: AllReduce over S0 pairs then across.
		{
			{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllReduce},
			{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
		},
		// Fig. 3c / Fig. 10i: Reduce, AllReduce between roots, Broadcast.
		{
			{Slice: 1, Form: dsl.InsideGroup, Op: collective.Reduce},
			{Slice: 1, Form: dsl.Master, Arg: 0, Op: collective.AllReduce},
			{Slice: 1, Form: dsl.InsideGroup, Op: collective.Broadcast},
		},
		// Fig. 10ii: ReduceScatter, AllReduce, AllGather.
		{
			{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
			{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
			{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllGather},
		},
	}
	have := map[string]bool{}
	for _, p := range res.Programs {
		have[p.String()] = true
	}
	for _, w := range wants {
		if !have[w.String()] {
			t.Errorf("paper program %v not synthesized", w)
		}
	}
}

func TestSingleLevelUniverse(t *testing.T) {
	// When the reduction axis fits in one level, only three strategies
	// exist: AllReduce; Reduce+Broadcast; ReduceScatter+AllGather.
	m, err := placement.NewMatrix([]int{4, 16}, []int{4, 16},
		[][]int{{1, 4}, {4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Synthesize(h, Options{})
	if len(res.Programs) != 3 {
		t.Fatalf("got %d programs, want 3: %v", len(res.Programs), res.Programs)
	}
}

func TestMemoizationDoesNotChangeResults(t *testing.T) {
	h := fig2d(t)
	with := Synthesize(h, Options{})
	without := Synthesize(h, Options{NoMemo: true})
	if len(with.Programs) != len(without.Programs) {
		t.Fatalf("memoization changed program count: %d vs %d",
			len(with.Programs), len(without.Programs))
	}
	for i := range with.Programs {
		if with.Programs[i].String() != without.Programs[i].String() {
			t.Fatalf("program %d differs: %v vs %v", i, with.Programs[i], without.Programs[i])
		}
	}
	if with.MemoHits == 0 {
		t.Error("memoization never hit")
	}
}

func TestSizeLimitMonotone(t *testing.T) {
	h := fig2d(t)
	prev := 0
	for size := 1; size <= 5; size++ {
		res := Synthesize(h, Options{MaxSize: size})
		if len(res.Programs) < prev {
			t.Fatalf("size %d yields fewer programs (%d) than size %d (%d)",
				size, len(res.Programs), size-1, prev)
		}
		prev = len(res.Programs)
	}
}

func TestDeterminism(t *testing.T) {
	h := fig2d(t)
	a := Synthesize(h, Options{})
	b := Synthesize(h, Options{})
	if len(a.Programs) != len(b.Programs) {
		t.Fatal("nondeterministic program count")
	}
	for i := range a.Programs {
		if !reflect.DeepEqual(a.Programs[i], b.Programs[i]) {
			t.Fatal("nondeterministic program order")
		}
	}
}

func TestCandidatesDeduplicated(t *testing.T) {
	h := fig2d(t)
	cands := Candidates(h)
	seen := map[string]bool{}
	for _, in := range cands {
		key := groupsKey(in.Groups(h), in.Op)
		if seen[key] {
			t.Errorf("candidate %v duplicates an earlier grouping", in)
		}
		seen[key] = true
	}
}

func TestCandidatesIncludeMasterForms(t *testing.T) {
	h := fig2d(t)
	foundMaster := false
	for _, in := range Candidates(h) {
		if in.Form == dsl.Master {
			foundMaster = true
		}
	}
	if !foundMaster {
		t.Error("no Master-form candidates")
	}
}

func TestCollapsedEquivalentSearch(t *testing.T) {
	// For a multi-axis reduction whose factors share hardware levels,
	// collapsing must preserve at least the three canonical strategies.
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
	res := Synthesize(h, Options{})
	if len(res.Programs) < 3 {
		t.Fatalf("only %d programs for collapsed multi-axis case", len(res.Programs))
	}
	for _, p := range res.Programs {
		if !p.Implements(h) {
			t.Errorf("invalid program %v", p)
		}
	}
}

// TestMemoryFollowsPrograms: a run's memory follows the programs it finds,
// not the size limit it is given. On [2 4] the longest program has five
// steps, so a limit of 1<<16 finds exactly the programs a limit of 5 does
// and may allocate at most twice as much (its path-count table once had a
// row per allowed length: 22 MB against 0.1 MB).
func TestMemoryFollowsPrograms(t *testing.T) {
	var h *hierarchy.Hierarchy
	for _, ph := range pinnedSet(t) {
		if ph.h.String() == "[2 4]" {
			h = ph.h
			break
		}
	}
	synthesize := func(maxSize int) (*Result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Synthesize(h, Options{MaxSize: maxSize})
		runtime.ReadMemStats(&after)
		return res, after.TotalAlloc - before.TotalAlloc
	}
	small, smallBytes := synthesize(5)
	large, largeBytes := synthesize(1 << 16)
	if !reflect.DeepEqual(small.Programs, large.Programs) {
		t.Fatalf("size limit 1<<16 found %d programs, 5 found %d", len(large.Programs), len(small.Programs))
	}
	if largeBytes > 2*smallBytes {
		t.Errorf("size limit 1<<16 allocated %d bytes, 5 allocated %d: want at most twice", largeBytes, smallBytes)
	}
}

// TestInstructionStringMatchesFmt: Instruction.String renders every
// candidate of the test hierarchies byte for byte as its fmt form did.
func TestInstructionStringMatchesFmt(t *testing.T) {
	n := 0
	for _, h := range poolMix(t) {
		for _, in := range Candidates(h) {
			form := in.Form.String()
			if in.Form != dsl.InsideGroup {
				form = fmt.Sprintf("%s(%d)", form, in.Arg)
			}
			if got, want := in.String(), fmt.Sprintf("(%d, %s, %s)", in.Slice, form, in.Op); got != want {
				t.Errorf("%s renders %q, want %q", h, got, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no candidates rendered")
	}
}
