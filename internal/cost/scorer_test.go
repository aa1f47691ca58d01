package cost

import (
	"math"
	"sync"
	"testing"

	"p2/internal/collective"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/topology"
)

// scorerCases lowers every synthesized program of a few representative
// requests, covering all ops, replicas, collapse and deep hierarchies.
func scorerCases(t *testing.T) []struct {
	sys *topology.System
	lp  *lower.Program
} {
	t.Helper()
	var out []struct {
		sys *topology.System
		lp  *lower.Program
	}
	reqs := []struct {
		sys  *topology.System
		axes []int
		red  []int
	}{
		{topology.Fig2aSystem(), []int{4, 4}, []int{0}},
		{topology.A100System(2), []int{4, 8}, []int{0}},
		{topology.V100System(2), []int{4, 4}, []int{1}},
		{topology.SuperPodSystem(2, 4), []int{8, 8}, []int{0}},
		// Non-power-of-two hierarchies exercise the residual
		// halving-doubling schedule (groups of 3, 6 and 12).
		{topology.A100System(3), []int{3, 16}, []int{0}},
		{topology.SuperPodSystem(3, 2), []int{6, 8}, []int{0}},
	}
	for _, rq := range reqs {
		matrices, err := placement.Enumerate(rq.sys.Hierarchy(), rq.axes)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matrices {
			h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, rq.red, hierarchy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, prog := range synth.Synthesize(h, synth.Options{}).Programs {
				lp, err := lower.Lower(prog, h)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, struct {
					sys *topology.System
					lp  *lower.Program
				}{rq.sys, lp})
			}
		}
	}
	return out
}

// TestScorerMatchesModel: one Scorer reused across every case — all ops,
// algorithms and systems, so it rebinds between systems and relies on the
// dirty-entry reset between steps — must reproduce a fresh Scorer, and so
// must the pooled Scorer behind the Model's methods, bit for bit.
func TestScorerMatchesModel(t *testing.T) {
	reused := new(Scorer)
	for _, tc := range scorerCases(t) {
		for _, algo := range ExtendedAlgorithms {
			model := &Model{Sys: tc.sys, Algo: algo, Bytes: DefaultPayload(tc.sys)}
			for si, st := range tc.lp.Steps {
				want := math.Float64bits(NewScorer(tc.sys).StepTimeAlgo(model, st, algo))
				got := math.Float64bits(reused.StepTimeAlgo(model, st, algo))
				pooled := math.Float64bits(model.StepTimeAlgo(st, algo))
				if got != want || pooled != want {
					t.Fatalf("%s %v step %d algo %v: reused %016x, pooled %016x, fresh %016x",
						tc.sys.Name, tc.lp, si, algo, got, pooled, want)
				}
			}
			want := NewScorer(tc.sys).ProgramTime(model, tc.lp)
			if got := reused.ProgramTime(model, tc.lp); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v algo %v: reused ProgramTime %v != fresh %v", tc.sys.Name, tc.lp, algo, got, want)
			}
			if got := model.ProgramTime(tc.lp); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v algo %v: Model.ProgramTime %v != fresh %v", tc.sys.Name, tc.lp, algo, got, want)
			}
		}
	}
}

// TestScorerZeroAlloc: after warm-up (scratch grown), scoring must not
// allocate.
func TestScorerZeroAlloc(t *testing.T) {
	t.Run("superpod-2x4", func(t *testing.T) {
		testScorerZeroAlloc(t, topology.SuperPodSystem(2, 4), "[[1 2 4] [2 2 2]]", []int{8, 8})
	})
	// Non-power-of-two groups must stay allocation-free too: the residual
	// halving-doubling links are walked inline like the pure-core ones.
	t.Run("superpod-3x2", func(t *testing.T) {
		testScorerZeroAlloc(t, topology.SuperPodSystem(3, 2), "[[3 1 2] [1 2 4]]", []int{6, 8})
	})
}

func testScorerZeroAlloc(t *testing.T, sys *topology.System, matrix string, axes []int) {
	m, err := placement.ParseMatrix(matrix, sys.Hierarchy(), axes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		t.Fatal(err)
	}
	model := &Model{Sys: sys, Algo: Ring, Bytes: DefaultPayload(sys)}
	sc := NewScorer(sys)
	for _, algo := range ExtendedAlgorithms {
		sc.ProgramTime(&Model{Sys: sys, Algo: algo, Bytes: model.Bytes}, lp) // warm the scratch
	}
	for _, algo := range ExtendedAlgorithms {
		mm := &Model{Sys: sys, Algo: algo, Bytes: model.Bytes}
		if allocs := testing.AllocsPerRun(20, func() { sc.ProgramTime(mm, lp) }); allocs != 0 {
			t.Errorf("algo %v: %v allocs/op on the scoring path, want 0", algo, allocs)
		}
		// The Model's methods borrow a pooled Scorer, so a warm call
		// allocates nothing either — except under the race detector, whose
		// sync.Pool drops items at random.
		if raceEnabled {
			continue
		}
		mm.ProgramTime(lp)
		if allocs := testing.AllocsPerRun(20, func() { mm.ProgramTime(lp) }); allocs != 0 {
			t.Errorf("algo %v: %v allocs/op in a warm Model.ProgramTime, want 0", algo, allocs)
		}
	}
}

// TestModelConcurrentUse: goroutines calling the Model's methods at once
// share the Scorer pool; each must get the serial result, bit for bit,
// whichever pooled Scorer (last bound to whichever system) it borrows.
func TestModelConcurrentUse(t *testing.T) {
	cases := scorerCases(t)
	want := make([][]uint64, len(cases))
	for i, tc := range cases {
		model := &Model{Sys: tc.sys, Algo: HalvingDoubling, Bytes: DefaultPayload(tc.sys)}
		for _, st := range tc.lp.Steps {
			want[i] = append(want[i], math.Float64bits(model.StepTimeAlgo(st, model.Algo)))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cases {
				i := (k + w*len(cases)/4) % len(cases) // each goroutine a rotated order
				tc := cases[i]
				model := &Model{Sys: tc.sys, Algo: HalvingDoubling, Bytes: DefaultPayload(tc.sys)}
				for si, st := range tc.lp.Steps {
					if got := math.Float64bits(model.StepTimeAlgo(st, model.Algo)); got != want[i][si] {
						t.Errorf("goroutine %d, %s %v step %d: %016x, serial %016x", w, tc.sys.Name, tc.lp, si, got, want[i][si])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestScorerFreshPayloadZeroAlloc: a warm Scorer allocates nothing on a
// payload it has not seen — the daemon's slow path plans every request at
// a new byte count. 257 distinct payloads, each scored on a ring, a chain,
// a non-power-of-two halving-doubling and a tree step.
func TestScorerFreshPayloadZeroAlloc(t *testing.T) {
	sys := topology.SuperPodSystem(3, 4)
	n := sys.NumDevices()
	steps := []struct {
		st   lower.Step
		algo Algorithm
	}{
		{lower.Step{Op: collective.AllReduce, Groups: partition(n, 4, true), Rows: 1, RowsOut: 1, K: 1}, Ring},
		{lower.Step{Op: collective.Reduce, Groups: partition(n, 4, true), Rows: 1, RowsOut: 1, K: 1}, Ring},
		{lower.Step{Op: collective.AllReduce, Groups: partition(n, 6, true), Rows: 1, RowsOut: 1, K: 1}, HalvingDoubling},
		{lower.Step{Op: collective.AllReduce, Groups: partition(n, 8, true), Rows: 1, RowsOut: 1, K: 1}, Tree},
	}
	wantPatterns := []Pattern{PatternRing, PatternChain, PatternHalvingDoubling, PatternTree}
	sc := NewScorer(sys)
	m := &Model{Sys: sys, Bytes: DefaultPayload(sys)}
	for i, c := range steps {
		if p := ScheduleOf(c.st.Op, c.algo, c.st.GroupSize(), 1).Pattern; p != wantPatterns[i] {
			t.Fatalf("step %d runs pattern %d, want %d", i, p, wantPatterns[i])
		}
		sc.StepTimeAlgo(m, c.st, c.algo) // warm the scratch
	}
	allocs := testing.AllocsPerRun(257, func() {
		m.Bytes++
		for _, c := range steps {
			sc.StepTimeAlgo(m, c.st, c.algo)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per fresh payload, want 0", allocs)
	}
}

// TestScorerRebindsSystem: a Scorer handed another system's model binds
// to it — growing its traffic array for a system with more uplinks, and
// keeping the larger array on the way back — and scores exactly as a fresh
// Scorer of that system does.
func TestScorerRebindsSystem(t *testing.T) {
	small, large := topology.V100System(2), topology.SuperPodSystem(3, 2)
	degraded := withFaults(t, large, "1:2:bw/4; 2:5:down")
	sc := NewScorer(small)
	for i, sys := range []*topology.System{small, large, small, degraded, large, small} {
		for _, algo := range ExtendedAlgorithms {
			m := &Model{Sys: sys, Algo: algo, Bytes: DefaultPayload(sys)}
			st := lower.Step{Op: collective.AllReduce, Groups: partition(sys.NumDevices(), 4, true), Rows: 1, RowsOut: 1, K: 1}
			want := math.Float64bits(NewScorer(sys).StepTimeAlgo(m, st, algo))
			if got := math.Float64bits(sc.StepTimeAlgo(m, st, algo)); got != want {
				t.Errorf("row %d %s %v: rebound scorer %016x, fresh %016x", i, sys.Name, algo, got, want)
			}
		}
	}
}
