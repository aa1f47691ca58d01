package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"p2/internal/cost"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/topology"
)

// serialRank is the reference ranking the engine must reproduce: matrices
// in order, synthesis per matrix, stable sort by predicted time.
func serialRank(t *testing.T, matrices []*placement.Matrix, reduceAxes []int, model *cost.Model, collapse bool) []*Candidate {
	t.Helper()
	var all []*Candidate
	for mi, m := range matrices {
		h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, reduceAxes,
			hierarchy.Options{Collapse: collapse})
		if err != nil {
			t.Fatal(err)
		}
		res := synth.Synthesize(h, synth.Options{})
		for pi, prog := range res.Programs {
			lp, err := lower.Lower(prog, h)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, &Candidate{MatrixIdx: mi, ProgIdx: pi, Matrix: m,
				Program: prog, Lowered: lp, Predicted: model.ProgramTime(lp)})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Predicted < all[j].Predicted })
	return all
}

func rankString(cands []*Candidate) string {
	s := ""
	for _, c := range cands {
		s += fmt.Sprintf("%v|%v|%016x\n", c.Matrix, c.Program, math.Float64bits(c.Predicted))
	}
	return s
}

func testSetup(t *testing.T) ([]*placement.Matrix, []int, *cost.Model) {
	t.Helper()
	sys := topology.A100System(4)
	axes := []int{4, 16}
	matrices, err := placement.Enumerate(sys.Hierarchy(), axes)
	if err != nil {
		t.Fatal(err)
	}
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}
	return matrices, []int{0}, model
}

func TestRunMatchesSerial(t *testing.T) {
	matrices, red, model := testSetup(t)
	want := rankString(serialRank(t, matrices, red, model, false))
	for _, par := range []int{1, 2, 4, 16} {
		got, _, err := New().RunCtx(context.Background(), matrices, red, model, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if g := rankString(got); g != want {
			t.Errorf("parallelism %d ranking differs from serial:\ngot:\n%swant:\n%s", par, g, want)
		}
	}
}

func TestTopKIsPrefixOfFullRanking(t *testing.T) {
	matrices, red, model := testSetup(t)
	full, _, err := New().RunCtx(context.Background(), matrices, red, model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 10, len(full), len(full) + 50} {
		got, _, err := New().RunCtx(context.Background(), matrices, red, model, Options{TopK: k, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		wantLen := k
		if wantLen > len(full) {
			wantLen = len(full)
		}
		if len(got) != wantLen {
			t.Fatalf("TopK=%d returned %d candidates, want %d", k, len(got), wantLen)
		}
		if rankString(got) != rankString(full[:wantLen]) {
			t.Errorf("TopK=%d is not the prefix of the full ranking", k)
		}
	}
}

func TestMemoizationSharesSynthesis(t *testing.T) {
	// SuperPod(4,8) with axes [16 16]: several of the 10 placements share
	// a reduction hierarchy (e.g. rows [1 2 8] and [2 1 8] both collapse
	// to sizes [2 8]), so synthesis must run strictly fewer times than
	// there are placements.
	sys := topology.SuperPodSystem(4, 8)
	axes := []int{16, 16}
	matrices, err := placement.Enumerate(sys.Hierarchy(), axes)
	if err != nil {
		t.Fatal(err)
	}
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(32)}
	_, stats, err := New().RunCtx(context.Background(), matrices, []int{0}, model, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Placements != len(matrices) {
		t.Errorf("Placements = %d, want %d", stats.Placements, len(matrices))
	}
	if stats.SynthRuns >= stats.Placements {
		t.Errorf("SynthRuns = %d, want < %d placements (memo should share)",
			stats.SynthRuns, stats.Placements)
	}
	if stats.SynthRuns+stats.MemoHits != stats.Placements {
		t.Errorf("SynthRuns %d + MemoHits %d != Placements %d",
			stats.SynthRuns, stats.MemoHits, stats.Placements)
	}
}

func TestSignatureMemoIsCorrect(t *testing.T) {
	// Placements sharing a signature must get identical program sets; the
	// memoized run must equal a memo-free serial reference on every matrix.
	matrices, red, model := testSetup(t)
	p := New()
	for _, m := range matrices {
		got, _, err := p.RunCtx(context.Background(), []*placement.Matrix{m}, red, model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red, hierarchy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := synth.Synthesize(h, synth.Options{}).Programs
		if len(got) != len(want) {
			t.Fatalf("matrix %v: %d programs, want %d", m, len(got), len(want))
		}
		for _, c := range got {
			if c.Program.String() != want[c.ProgIdx].String() {
				t.Errorf("matrix %v program %d: %v, want %v", m, c.ProgIdx, c.Program, want[c.ProgIdx])
			}
		}
	}
}

// TestPlannerConcurrentUse exercises the shared signature memo from many
// goroutines (meaningful under -race).
func TestPlannerConcurrentUse(t *testing.T) {
	matrices, red, model := testSetup(t)
	p := New()
	want := ""
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := p.RunCtx(context.Background(), matrices, red, model, Options{Parallelism: 4})
			if err != nil {
				t.Error(err)
				return
			}
			s := rankString(got)
			mu.Lock()
			defer mu.Unlock()
			if want == "" {
				want = s
			} else if s != want {
				t.Error("concurrent runs disagree")
			}
		}()
	}
	wg.Wait()
}

// TestRunErrorDeterministic: failures must surface the lowest-indexed
// matrix's error at every worker count (here every matrix fails the
// same way, so the message must be stable across parallelism).
func TestRunErrorDeterministic(t *testing.T) {
	matrices, _, model := testSetup(t)
	want := ""
	for _, par := range []int{1, 4, 16} {
		_, _, err := New().RunCtx(context.Background(), matrices, []int{9}, model, Options{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: expected error for out-of-range axis", par)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("parallelism %d: error %q, want %q", par, err, want)
		}
	}
}

// TestFanOutPanicBecomesError: a panic inside one worker item must not
// unwind the process — fanOut recovers it into a *PanicError carrying
// the item's enumeration index, the panic value and the worker's stack,
// and (like any item failure) reports it as the lowest-indexed error at
// every worker count. Items below the crashing index still run.
func TestFanOutPanicBecomesError(t *testing.T) {
	matrices, _, _ := testSetup(t)
	if len(matrices) < 3 {
		t.Fatalf("need at least 3 placements, have %d", len(matrices))
	}
	for _, par := range []int{1, 4, 16} {
		var mu sync.Mutex
		ran := map[int]bool{}
		_, produced, err := fanOut[int](context.Background(), Options{Parallelism: par},
			sliceStream(matrices),
			func(ws *workerState, i int, m *placement.Matrix, emit func(int)) error {
				mu.Lock()
				ran[i] = true
				mu.Unlock()
				if i == 2 {
					panic("injected worker crash")
				}
				emit(i)
				return nil
			},
			func(a, b int) bool { return a < b },
			func(x int) float64 { return float64(x) },
			newThreshold())
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: err = %v, want *PanicError", par, err)
		}
		if pe.Index != 2 || fmt.Sprint(pe.Value) != "injected worker crash" {
			t.Errorf("parallelism %d: PanicError{Index: %d, Value: %v}, want index 2, injected value",
				par, pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("parallelism %d: PanicError.Stack is empty", par)
		}
		if want := "plan: panic while planning placement 2: injected worker crash"; err.Error() != want {
			t.Errorf("parallelism %d: error %q, want %q (deterministic across worker counts)",
				par, err, want)
		}
		mu.Lock()
		if !ran[0] || !ran[1] {
			t.Errorf("parallelism %d: items below the crash did not all run: %v", par, ran)
		}
		mu.Unlock()
		if produced < 3 {
			t.Errorf("parallelism %d: produced %d items, want at least 3", par, produced)
		}
	}
}

func TestTopKHeapProperty(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	// Deterministic pseudo-random insertion order.
	x := uint64(12345)
	var vals []int
	for i := 0; i < 500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		vals = append(vals, int(x%1000))
	}
	for _, k := range []int{1, 7, 100, 500, 1000, 0} {
		h := newTopK(k, less)
		for _, v := range vals {
			h.push(v)
		}
		got := append([]int(nil), h.items()...)
		sort.Ints(got)
		want := append([]int(nil), vals...)
		sort.Ints(want)
		if k > 0 && k < len(want) {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d kept %d items, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d kept %v, want %v", k, got, want)
			}
		}
	}
}

func TestRunJointMatchesSerial(t *testing.T) {
	sys := topology.A100System(2)
	axes := []int{4, 8}
	matrices, err := placement.Enumerate(sys.Hierarchy(), axes)
	if err != nil {
		t.Fatal(err)
	}
	specs := []JointSpec{
		{ReduceAxes: []int{0}, Model: &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: 1 << 30}, Weight: 1},
		{ReduceAxes: []int{1}, Model: &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: 1 << 26}, Weight: 48},
	}
	// Serial reference: per matrix, best per reduction, weighted total,
	// stable sort by total.
	type ref struct {
		mi    int
		total float64
	}
	var want []ref
	for mi, m := range matrices {
		total := 0.0
		for _, spec := range specs {
			// Unpruned, so the reference does not lean on the bound; the
			// ranking is sorted by Less, so its head is the best.
			cands, _, err := New().RunCtx(context.Background(), []*placement.Matrix{m}, spec.ReduceAxes, spec.Model,
				Options{Collapse: spec.Collapse})
			if err != nil {
				t.Fatal(err)
			}
			total += spec.Weight * cands[0].Predicted
		}
		want = append(want, ref{mi: mi, total: total})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].total < want[j].total })

	for _, par := range []int{1, 4, 16} {
		got, _, err := New().RunJointCtx(context.Background(), matrices, specs, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d choices, want %d", par, len(got), len(want))
		}
		for i := range got {
			if got[i].MatrixIdx != want[i].mi || got[i].Total != want[i].total {
				t.Errorf("parallelism %d choice %d: matrix %d total %v, want matrix %d total %v",
					par, i, got[i].MatrixIdx, got[i].Total, want[i].mi, want[i].total)
			}
		}
	}
}
