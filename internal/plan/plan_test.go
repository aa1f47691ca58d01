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
	"p2/internal/netsim"
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
			all = append(all, &Candidate{MatrixIdx: int32(mi), ProgIdx: int32(pi), Matrix: m,
				Program: prog, Predicted: model.ProgramTime(lp)})
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

// streamOf yields a materialized placement set in order, the engine's
// placement stream for tests that enumerate first.
func streamOf(matrices []*placement.Matrix) func(func(*placement.Matrix) bool) error {
	return func(yield func(*placement.Matrix) bool) error {
		for _, m := range matrices {
			if !yield(m) {
				break
			}
		}
		return nil
	}
}

// resolveAll resolves joint reductions the way p2.PlanJoint does.
func resolveAll(t *testing.T, sys *topology.System, reds ...Reduction) []JointSpec {
	t.Helper()
	specs := make([]JointSpec, len(reds))
	for i, r := range reds {
		var err error
		if specs[i], err = Resolve(sys, r); err != nil {
			t.Fatal(err)
		}
	}
	return specs
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
		got, _, err := New().RunStreamCtx(context.Background(), streamOf(matrices), red, model, Options{Parallelism: par})
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
	full, _, err := New().RunStreamCtx(context.Background(), streamOf(matrices), red, model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 10, len(full), len(full) + 50} {
		got, _, err := New().RunStreamCtx(context.Background(), streamOf(matrices), red, model, Options{TopK: k, Parallelism: 4})
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
	_, stats, err := New().RunStreamCtx(context.Background(), streamOf(matrices), []int{0}, model, Options{Parallelism: 1})
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
		got, _, err := p.RunStreamCtx(context.Background(), streamOf([]*placement.Matrix{m}), red, model, Options{})
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
			got, _, err := p.RunStreamCtx(context.Background(), streamOf(matrices), red, model, Options{Parallelism: 4})
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
		_, _, err := New().RunStreamCtx(context.Background(), streamOf(matrices), []int{9}, model, Options{Parallelism: par})
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
			streamOf(matrices),
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

// TestRerankCancelledKeepsAnalyticOrder drives the measured re-sort's
// cancel path directly, for both request shapes: under an already
// cancelled context every Measured field comes back zero (or nil), the
// analytic order survives, no measurement is counted and the context
// error is returned.
func TestRerankCancelledKeepsAnalyticOrder(t *testing.T) {
	matrices, red, model := testSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cands, _, err := New().RunStreamCtx(context.Background(), streamOf(matrices), red, model, Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := rankString(cands)
	for _, c := range cands {
		c.Measured = 1 // stale values the cancel path must clear
	}
	var stats Stats
	if err := rerank(ctx, cands, New().single(ctx, red, model, Options{}), &stats); !errors.Is(err, context.Canceled) {
		t.Fatalf("single: err = %v, want context.Canceled", err)
	}
	if got := rankString(cands); got != want {
		t.Errorf("single: cancelled re-rank reordered the analytic ranking:\ngot:\n%swant:\n%s", got, want)
	}
	for _, c := range cands {
		if c.Measured != 0 {
			t.Errorf("single: %v %v kept Measured %v", c.Matrix, c.Program, c.Measured)
		}
	}
	if stats != (Stats{}) {
		t.Errorf("single: cancelled re-rank counted %+v", stats)
	}

	specs := resolveAll(t, model.Sys,
		Reduction{ReduceAxes: []int{0}, Bytes: model.Bytes},
		Reduction{ReduceAxes: []int{1}, Bytes: model.Bytes, Count: 4})
	jcs, _, err := New().RunJointCtx(context.Background(), streamOf(matrices), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(jcs))
	for i, jc := range jcs {
		order[i] = jc.MatrixIdx
		jc.Measured, jc.MeasuredTotal = []float64{1, 4}, 5
		for _, c := range jc.PerReduction {
			c.Measured = 1
		}
	}
	if err := rerank(ctx, jcs, New().joint(ctx, specs, Options{}), &stats); !errors.Is(err, context.Canceled) {
		t.Fatalf("joint: err = %v, want context.Canceled", err)
	}
	for i, jc := range jcs {
		if jc.MatrixIdx != order[i] {
			t.Errorf("joint: choice %d is placement %d, want %d (analytic order)", i, jc.MatrixIdx, order[i])
		}
		if jc.Measured != nil || jc.MeasuredTotal != 0 {
			t.Errorf("joint: placement %d kept Measured %v / %v", jc.MatrixIdx, jc.Measured, jc.MeasuredTotal)
		}
		for ri, c := range jc.PerReduction {
			if c.Measured != 0 {
				t.Errorf("joint: placement %d reduction %d kept Measured %v", jc.MatrixIdx, ri, c.Measured)
			}
		}
	}
	if stats != (Stats{}) {
		t.Errorf("joint: cancelled re-rank counted %+v", stats)
	}
}

func TestRunJointMatchesSerial(t *testing.T) {
	sys := topology.A100System(2)
	axes := []int{4, 8}
	matrices, err := placement.Enumerate(sys.Hierarchy(), axes)
	if err != nil {
		t.Fatal(err)
	}
	specs := resolveAll(t, sys,
		Reduction{ReduceAxes: []int{0}, Bytes: 1 << 30},
		Reduction{ReduceAxes: []int{1}, Bytes: 1 << 26, Count: 48})
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
			cands, _, err := New().RunStreamCtx(context.Background(), streamOf([]*placement.Matrix{m}), spec.ReduceAxes, spec.Model,
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
		got, _, err := New().RunJointCtx(context.Background(), streamOf(matrices), specs, Options{Parallelism: par})
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

// TestCandidateAlgoCanonical: the engine decides a searched candidate's
// algorithm once. A uniform winning assignment is folded into Algo and
// StepAlgos left nil; a mixed one is kept whole. Either way AlgoString is
// the canonical form of Model.BestStepAlgos, and Measure, which runs
// (Algo, StepAlgos) as they are, reproduces bit for bit the emulator on
// the raw assignment with the model's algorithm — netsim folds a uniform
// assignment the same way, so the jitter seed cannot move.
func TestCandidateAlgoCanonical(t *testing.T) {
	folded, mixed := 0, 0 // folded counts uniform winners other than the model's algorithm
	for _, tc := range []struct {
		sys  *topology.System
		axes []int
		red  []int
	}{
		{topology.Fig2aSystem(), []int{4, 4}, []int{0}},
		{topology.A100System(2), []int{4, 8}, []int{0}},
		{topology.A100System(2), []int{2, 16}, []int{0}},
		{topology.V100System(2), []int{4, 4}, []int{1}},
	} {
		spec, err := Resolve(tc.sys, Reduction{ReduceAxes: tc.red, Algos: cost.ExtendedAlgorithms})
		if err != nil {
			t.Fatal(err)
		}
		matrices, err := placement.Enumerate(tc.sys.Hierarchy(), tc.axes)
		if err != nil {
			t.Fatal(err)
		}
		opts := spec.Options(Options{})
		cands, _, err := New().RunStreamCtx(context.Background(), streamOf(matrices), spec.ReduceAxes, spec.Model, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := Measure(context.Background(), cands, spec.Model, opts); err != nil {
			t.Fatal(err)
		}
		sim := &netsim.Simulator{Sys: tc.sys, Algo: spec.Model.Algo, Bytes: spec.Model.Bytes}
		for _, c := range cands {
			raw, _ := spec.Model.BestStepAlgos(c.Lowered(), cost.ExtendedAlgorithms)
			want := cost.FormatAlgos(spec.Model.Algo, raw)
			if a, ok := cost.UniformAlgo(raw); ok {
				want = a.String()
				if a != spec.Model.Algo {
					folded++
				}
			} else {
				mixed++
			}
			if _, ok := cost.UniformAlgo(c.StepAlgos); ok {
				t.Errorf("%s %v %v: uniform StepAlgos %v left unfolded", tc.sys.Name, c.Matrix, c.Program, c.StepAlgos)
			}
			if got := c.AlgoString(); got != want {
				t.Errorf("%s %v %v: AlgoString %q, want %q", tc.sys.Name, c.Matrix, c.Program, got, want)
			}
			if want := sim.MeasureSteps(c.Lowered(), raw); math.Float64bits(c.Measured) != math.Float64bits(want) {
				t.Errorf("%s %v %v: Measured %v, raw assignment measures %v", tc.sys.Name, c.Matrix, c.Program, c.Measured, want)
			}
		}
	}
	if folded == 0 || mixed == 0 {
		t.Errorf("%d uniform winners off the model's algorithm, %d mixed: want both kinds covered", folded, mixed)
	}
}
