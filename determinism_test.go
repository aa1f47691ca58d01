// Equivalence tests for the parallel memoized planning engine: the
// parallel path must produce byte-identical strategy rankings to the
// serial reference (PlanSerial / PlanJointSerial) at every parallelism
// level, and TopK must be an exact prefix of the full ranking.
package p2_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2"
)

// planFingerprint renders a ranking byte-exactly: placement, program,
// per-step algorithm assignment and the raw float64 bits of the
// prediction and the measurement (zero unless the plan ran in a measured
// mode), one strategy per line.
func planFingerprint(res *p2.PlanResult) string {
	var b strings.Builder
	for _, s := range res.Strategies {
		fmt.Fprintf(&b, "%v|%v|%s|%016x|%016x\n", s.Matrix, s.Program, s.AlgoString(),
			math.Float64bits(s.Predicted), math.Float64bits(s.Measured))
	}
	return b.String()
}

func jointFingerprint(jp *p2.JointPlan) string {
	var b strings.Builder
	for _, c := range jp.Choices {
		fmt.Fprintf(&b, "%v|%016x|%016x", c.Matrix, math.Float64bits(c.Total),
			math.Float64bits(c.MeasuredTotal))
		for i, s := range c.PerReduction {
			fmt.Fprintf(&b, "|%v[%s]@%016x*%016x~%016x", s.Program, s.AlgoString(),
				math.Float64bits(s.Predicted), math.Float64bits(c.Costs[i]),
				math.Float64bits(s.Measured))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// measuredReference builds the expected result of a measured plan from
// the serial analytic ranking: truncate to the analytic top-K (0 = all),
// measure every survivor on the emulator, stable-sort by measured time
// (so analytic order breaks measured ties), and truncate to finalK (for
// rank-all, where truncation happens after the measured sort).
func measuredReference(serial *p2.PlanResult, analyticK, finalK int, opts p2.SimOptions) *p2.PlanResult {
	n := len(serial.Strategies)
	if analyticK > 0 && analyticK < n {
		n = analyticK
	}
	kept := make([]*p2.Strategy, n)
	for i, s := range serial.Strategies[:n] {
		c := *s
		c.Measured = s.MeasureWith(opts)
		kept[i] = &c
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Measured < kept[j].Measured })
	if finalK > 0 && finalK < len(kept) {
		kept = kept[:finalK]
	}
	return &p2.PlanResult{Strategies: kept}
}

var determinismCases = []struct {
	name  string
	sys   *p2.System
	axes  []int
	red   []int
	algos []p2.Algorithm
}{
	{"fig2a", p2.Fig2aSystem(), []int{4, 4}, []int{0}, nil},
	{"fig2a-multi-axis", p2.Fig2aSystem(), []int{2, 2, 4}, []int{0, 2}, nil},
	{"a100-4", p2.A100System(4), []int{4, 16}, []int{0}, nil},
	{"a100-4-multi-axis", p2.A100System(4), []int{16, 2, 2}, []int{0, 2}, nil},
	{"superpod-2x4", p2.SuperPodSystem(2, 4), []int{8, 8}, []int{0}, nil},
	// The per-step algorithm search must reproduce the serial brute-force
	// sweep byte for byte — assignments, predictions and tie order.
	{"fig2a-auto", p2.Fig2aSystem(), []int{4, 4}, []int{0}, p2.ExtendedAlgorithms},
	{"a100-4-auto", p2.A100System(4), []int{4, 16}, []int{0}, p2.ExtendedAlgorithms},
	{"superpod-2x4-auto", p2.SuperPodSystem(2, 4), []int{8, 8}, []int{0}, p2.ExtendedAlgorithms},
	// Non-power-of-two pod count: reduction groups of 3, 6 and 12 run the
	// residual halving-doubling schedule inside the auto search.
	{"superpod-3x4-auto", p2.SuperPodSystem(3, 4), []int{12, 8}, []int{0}, p2.ExtendedAlgorithms},
	// Degraded fabric: link overrides switch the cost model onto the
	// per-entity path, which must stay as deterministic as the uniform one.
	{"superpod-3x4-degraded", degradedSuperPod34(), []int{12, 8}, []int{0}, nil},
	{"superpod-3x4-degraded-auto", degradedSuperPod34(), []int{12, 8}, []int{0}, p2.ExtendedAlgorithms},
}

// degradedSuperPod34 is the determinism matrix's degraded system: a
// superpod-3x4 with one GPU's NVSwitch uplink throttled to a tenth.
func degradedSuperPod34() *p2.System { return withFaults(p2.SuperPodSystem(3, 4), "2:13:bw/10") }

// withFaults returns sys degraded by a fault spec in p2.ParseFaults's
// grammar. It panics on a bad spec, so package-level tables can call it.
func withFaults(sys *p2.System, spec string) *p2.System {
	ovs, err := p2.ParseFaults(sys, spec)
	if err == nil {
		sys, err = sys.WithOverrides(ovs...)
	}
	if err != nil {
		panic(err)
	}
	return sys
}

func TestPlanParallelMatchesSerial(t *testing.T) {
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			req := p2.Request{Axes: tc.axes, ReduceAxes: tc.red, Algos: tc.algos}
			serial, err := p2.PlanSerial(tc.sys, req)
			if err != nil {
				t.Fatal(err)
			}
			want := planFingerprint(serial)
			for _, par := range []int{1, 4, 16} {
				req.Parallelism = par
				got, err := p2.Plan(tc.sys, req)
				if err != nil {
					t.Fatal(err)
				}
				if g := planFingerprint(got); g != want {
					t.Errorf("parallelism %d: ranking differs from serial (%d vs %d strategies)",
						par, len(got.Strategies), len(serial.Strategies))
				}
			}
		})
	}
}

// TestPlanCtxUndeadlinedMatchesSerial is the service-path determinism
// row: PlanCtx under an uncancelled Background context — the exact call
// the serve daemon makes for an undeadlined request — must rank
// byte-identically to the serial reference at every parallelism level,
// with Partial never set.
func TestPlanCtxUndeadlinedMatchesSerial(t *testing.T) {
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			req := p2.Request{Axes: tc.axes, ReduceAxes: tc.red, Algos: tc.algos}
			serial, err := p2.PlanSerial(tc.sys, req)
			if err != nil {
				t.Fatal(err)
			}
			want := planFingerprint(serial)
			for _, par := range []int{1, 4, 16} {
				req.Parallelism = par
				got, err := p2.PlanCtx(context.Background(), tc.sys, req)
				if err != nil {
					t.Fatal(err)
				}
				if got.Partial {
					t.Fatalf("parallelism %d: uncancelled PlanCtx returned a partial result", par)
				}
				if g := planFingerprint(got); g != want {
					t.Errorf("parallelism %d: PlanCtx ranking differs from serial (%d vs %d strategies)",
						par, len(got.Strategies), len(serial.Strategies))
				}
			}
		})
	}
}

// TestPlanJointCtxUndeadlinedMatchesSerial: the joint planner's context
// path under an uncancelled context must reproduce the serial joint
// ranking byte for byte at every parallelism level.
func TestPlanJointCtxUndeadlinedMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  *p2.System
		axes []int
	}{
		{"fig2a", p2.Fig2aSystem(), []int{4, 4}},
		{"a100-4", p2.A100System(4), []int{4, 16}},
		{"superpod-2x4", p2.SuperPodSystem(2, 4), []int{8, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reductions := []p2.Reduction{
				{ReduceAxes: []int{0}, Bytes: 1 << 30},
				{ReduceAxes: []int{1}, Bytes: 1 << 26, Count: 48,
					Algos: p2.ExtendedAlgorithms},
			}
			serial, err := p2.PlanJointSerial(tc.sys, tc.axes, reductions)
			if err != nil {
				t.Fatal(err)
			}
			want := jointFingerprint(serial)
			for _, par := range []int{1, 4, 16} {
				got, err := p2.PlanJointCtx(context.Background(), tc.sys, tc.axes, reductions,
					p2.JointOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if got.Partial {
					t.Fatalf("parallelism %d: uncancelled PlanJointCtx returned a partial result", par)
				}
				if g := jointFingerprint(got); g != want {
					t.Errorf("parallelism %d: PlanJointCtx joint ranking differs from serial:\ngot:\n%swant:\n%s",
						par, g, want)
				}
			}
		})
	}
}

// TestPlanCtxCancellationKeepsPlannerMemoSafe is the memo-safety half of
// the cancellation contract: cancelled requests on a shared Planner
// return promptly (the context's error, or a well-formed partial
// ranking), and a subsequent uncancelled request on the same Planner —
// whose memo the cancelled runs populated arbitrary prefixes of — must
// return the complete ranking, byte-identical to a fresh engine's.
func TestPlanCtxCancellationKeepsPlannerMemoSafe(t *testing.T) {
	sys := p2.SuperPodSystem(4, 8)
	req := p2.Request{Axes: []int{16, 16}, ReduceAxes: []int{0}, Parallelism: 4}
	pl := p2.NewPlanner(0)

	// Already-dead context: nothing may be scored, so the context's error
	// comes back — and promptly, not after planning everything anyway.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	type outcome struct {
		res *p2.PlanResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := pl.PlanCtx(ctx, sys, req)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatalf("pre-cancelled plan returned a result (partial=%v), want context.Canceled",
				o.res.Partial)
		}
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("pre-cancelled plan error = %v, want context.Canceled", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pre-cancelled plan did not return promptly")
	}

	// Mid-plan cancellation: the deadline may land before the first scored
	// candidate (context error), mid-rank (partial), or after completion —
	// all are legal; what matters is that the memo survives whichever
	// prefix of synthesis work the run managed.
	for _, timeout := range []time.Duration{time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		res, err := pl.PlanCtx(ctx, sys, req)
		cancel()
		switch {
		case err != nil && !errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("timeout %v: error %v, want context.DeadlineExceeded or a result", timeout, err)
		case err == nil && res.Partial && len(res.Strategies) == 0:
			t.Fatalf("timeout %v: partial result with no strategies", timeout)
		}
	}

	// The shared memo must now serve the full request bit-exactly.
	serial, err := p2.PlanSerial(sys, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.PlanCtx(context.Background(), sys, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatal("uncancelled request on the shared Planner returned a partial result")
	}
	if planFingerprint(got) != planFingerprint(serial) {
		t.Error("ranking after cancelled runs differs from the serial reference: cancellation corrupted the shared memo")
	}
}

func TestPlanTopKIsPrefix(t *testing.T) {
	tc := determinismCases[2] // a100-4
	full, err := p2.PlanSerial(tc.sys, p2.Request{Axes: tc.axes, ReduceAxes: tc.red})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 37, len(full.Strategies) + 10} {
		got, err := p2.Plan(tc.sys, p2.Request{Axes: tc.axes, ReduceAxes: tc.red,
			TopK: k, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := len(full.Strategies)
		if k < want {
			want = k
		}
		if len(got.Strategies) != want {
			t.Fatalf("TopK=%d kept %d strategies, want %d", k, len(got.Strategies), want)
		}
		prefix := &p2.PlanResult{Strategies: full.Strategies[:want]}
		if planFingerprint(got) != planFingerprint(prefix) {
			t.Errorf("TopK=%d is not a prefix of the full ranking", k)
		}
	}
}

func TestPlanJointParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  *p2.System
		axes []int
	}{
		{"fig2a", p2.Fig2aSystem(), []int{4, 4}},
		{"a100-4", p2.A100System(4), []int{4, 16}},
		{"superpod-2x4", p2.SuperPodSystem(2, 4), []int{8, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reductions := []p2.Reduction{
				{ReduceAxes: []int{0}, Bytes: 1 << 30},
				{ReduceAxes: []int{1}, Bytes: 1 << 26, Count: 48,
					Algos: p2.ExtendedAlgorithms},
			}
			serial, err := p2.PlanJointSerial(tc.sys, tc.axes, reductions)
			if err != nil {
				t.Fatal(err)
			}
			want := jointFingerprint(serial)
			for _, par := range []int{1, 4, 16} {
				got, err := p2.PlanJointCtx(context.Background(), tc.sys, tc.axes, reductions,
					p2.JointOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if g := jointFingerprint(got); g != want {
					t.Errorf("parallelism %d: joint ranking differs from serial:\ngot:\n%swant:\n%s",
						par, g, want)
				}
			}
			// TopK keeps the cheapest prefix.
			top, err := p2.PlanJointCtx(context.Background(), tc.sys, tc.axes, reductions,
				p2.JointOptions{Parallelism: 4, TopK: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(top.Choices) != 2 {
				t.Fatalf("TopK=2 kept %d choices", len(top.Choices))
			}
			prefix := &p2.JointPlan{Choices: serial.Choices[:2]}
			if jointFingerprint(top) != jointFingerprint(prefix) {
				t.Error("joint TopK=2 is not a prefix of the serial ranking")
			}
		})
	}
}

// TestPlanPrunedMatchesSerial is the determinism contract of the
// bound-pruned engine: at every parallelism level × TopK × algorithm
// search mode, the pruned ranking must be byte-identical to the
// corresponding prefix of the serial brute-force ranking — assignments,
// predictions and tie order. TopK=0 exercises the serial-identical
// fallback (no threshold exists, nothing may be pruned).
func TestPlanPrunedMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sys   *p2.System
		axes  []int
		red   []int
		algos []p2.Algorithm
	}{
		{"a100-4-auto", p2.A100System(4), []int{4, 16}, []int{0}, p2.ExtendedAlgorithms},
		{"superpod-2x4-auto", p2.SuperPodSystem(2, 4), []int{8, 8}, []int{0}, p2.ExtendedAlgorithms},
		{"a100-4-multi-axis", p2.A100System(4), []int{16, 2, 2}, []int{0, 2}, nil},
		// Residual halving-doubling under pruning: non-pow2 groups must
		// still rank byte-identically to the serial brute force at every
		// TopK × parallelism combination.
		{"superpod-3x4-auto", p2.SuperPodSystem(3, 4), []int{12, 8}, []int{0}, p2.ExtendedAlgorithms},
		// Degraded fabric under pruning: the per-entity bound must prune
		// exactly as the serial reference ranks, with a throttled NVSwitch
		// uplink steering both the bound and the model.
		{"superpod-3x4-degraded-auto", degradedSuperPod34(), []int{12, 8}, []int{0}, p2.ExtendedAlgorithms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := p2.PlanSerial(tc.sys, p2.Request{Axes: tc.axes, ReduceAxes: tc.red, Algos: tc.algos})
			if err != nil {
				t.Fatal(err)
			}
			full := planFingerprint(serial)
			for _, k := range []int{0, 1, 5} {
				for _, par := range []int{1, 4, 16} {
					got, err := p2.Plan(tc.sys, p2.Request{Axes: tc.axes, ReduceAxes: tc.red,
						Algos: tc.algos, TopK: k, Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					wantLen := len(serial.Strategies)
					if k > 0 && k < wantLen {
						wantLen = k
					}
					if len(got.Strategies) != wantLen {
						t.Fatalf("TopK=%d parallelism=%d: %d strategies, want %d",
							k, par, len(got.Strategies), wantLen)
					}
					want := planFingerprint(&p2.PlanResult{Strategies: serial.Strategies[:wantLen]})
					if g := planFingerprint(got); g != want {
						t.Errorf("TopK=%d parallelism=%d: pruned ranking differs from serial prefix:\ngot:\n%swant:\n%s",
							k, par, g, want)
					}
					if k == 0 && (got.Stats.PrunedPlacements != 0 || got.Stats.PrunedPrograms != 0) {
						t.Errorf("TopK=0 pruned work: %+v", got.Stats)
					}
					if k > 0 && got.Stats.Placements != serial.Stats.Placements {
						t.Errorf("TopK=%d parallelism=%d: streamed %d placements, want %d",
							k, par, got.Stats.Placements, serial.Stats.Placements)
					}
				}
			}
			if full == "" {
				t.Fatal("empty serial ranking")
			}
		})
	}
}

// TestPlanRerankDeterministic is the determinism contract of the
// measured re-rank stage: at TopK {1, 5} × parallelism {1, 4, 16}, the
// re-ranked result must be byte-identical to the serial reference —
// the analytic top-K, measured on the emulator and stably re-sorted by
// measured time — including the raw float bits of both the predictions
// and the measurements.
func TestPlanRerankDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sys   *p2.System
		axes  []int
		red   []int
		algos []p2.Algorithm
	}{
		{"a100-4-auto", p2.A100System(4), []int{4, 16}, []int{0}, p2.ExtendedAlgorithms},
		{"superpod-2x4", p2.SuperPodSystem(2, 4), []int{8, 8}, []int{0}, nil},
		// Residual halving-doubling groups must re-rank deterministically
		// too (the emulator's fold/core/unfold schedule is exercised).
		{"superpod-3x4-auto", p2.SuperPodSystem(3, 4), []int{12, 8}, []int{0}, p2.ExtendedAlgorithms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := p2.PlanSerial(tc.sys, p2.Request{Axes: tc.axes, ReduceAxes: tc.red, Algos: tc.algos})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 5} {
				want := planFingerprint(measuredReference(serial, k, 0, p2.SimOptions{}))
				for _, par := range []int{1, 4, 16} {
					got, err := p2.Plan(tc.sys, p2.Request{Axes: tc.axes, ReduceAxes: tc.red,
						Algos: tc.algos, TopK: k, Parallelism: par, Measure: p2.MeasureRerank})
					if err != nil {
						t.Fatal(err)
					}
					if g := planFingerprint(got); g != want {
						t.Errorf("TopK=%d parallelism=%d: re-ranked result differs from serial reference:\ngot:\n%swant:\n%s",
							k, par, g, want)
					}
					if got.Stats.MeasuredCandidates != k {
						t.Errorf("TopK=%d parallelism=%d: measured %d candidates, want %d",
							k, par, got.Stats.MeasuredCandidates, k)
					}
				}
			}
		})
	}
}

// TestPlanRankAllMatchesBruteForce: rank-all must order the entire
// candidate space by measured time — byte-identical to measuring every
// strategy of the serial analytic ranking and stably re-sorting — and a
// rank-all TopK must be an exact prefix of that measured ranking (which
// a re-ranked analytic TopK is generally not: pruning happens before
// measurement there).
func TestPlanRankAllMatchesBruteForce(t *testing.T) {
	sys := p2.A100System(2)
	req := p2.Request{Axes: []int{2, 16}, ReduceAxes: []int{0}, Algos: p2.ExtendedAlgorithms}
	serial, err := p2.PlanSerial(sys, req)
	if err != nil {
		t.Fatal(err)
	}
	full := measuredReference(serial, 0, 0, p2.SimOptions{})
	for _, k := range []int{0, 5} {
		want := planFingerprint(measuredReference(serial, 0, k, p2.SimOptions{}))
		for _, par := range []int{1, 4} {
			r := req
			r.TopK, r.Parallelism, r.Measure = k, par, p2.MeasureRankAll
			got, err := p2.Plan(sys, r)
			if err != nil {
				t.Fatal(err)
			}
			if g := planFingerprint(got); g != want {
				t.Errorf("rank-all TopK=%d parallelism=%d differs from measured brute force:\ngot:\n%swant:\n%s",
					k, par, g, want)
			}
			// Every candidate must have been measured, even under TopK.
			if got.Stats.MeasuredCandidates != len(full.Strategies) {
				t.Errorf("rank-all TopK=%d measured %d candidates, want %d",
					k, got.Stats.MeasuredCandidates, len(full.Strategies))
			}
			if got.Stats.PrunedPlacements != 0 || got.Stats.PrunedPrograms != 0 {
				t.Errorf("rank-all pruned analytic work: %+v", got.Stats)
			}
		}
	}
}

// TestPlanJointRerankDeterministic: measured joint planning re-sorts the
// placements by summed weighted emulated time, byte-identically at every
// parallelism level to the serial reference (measure each placement's
// per-reduction winners, weight, stable-sort).
func TestPlanJointRerankDeterministic(t *testing.T) {
	sys := p2.SuperPodSystem(2, 4)
	axes := []int{8, 8}
	reductions := []p2.Reduction{
		{ReduceAxes: []int{0}, Bytes: 1 << 30},
		{ReduceAxes: []int{1}, Bytes: 1 << 26, Count: 48, Algos: p2.ExtendedAlgorithms},
	}
	serial, err := p2.PlanJointSerial(sys, axes, reductions)
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference: measure, weight, stable-sort by measured total.
	ref := make([]*p2.JointChoice, len(serial.Choices))
	for i, c := range serial.Choices {
		cc := *c
		cc.PerReduction = append([]*p2.Strategy(nil), c.PerReduction...)
		cc.Measured = make([]float64, len(c.PerReduction))
		cc.MeasuredTotal = 0
		for ri, s := range c.PerReduction {
			ss := *s
			ss.Measured = s.MeasureWith(p2.SimOptions{})
			cc.PerReduction[ri] = &ss
			count := reductions[ri].Count
			if count <= 0 {
				count = 1
			}
			cc.Measured[ri] = count * ss.Measured
			cc.MeasuredTotal += cc.Measured[ri]
		}
		ref[i] = &cc
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].MeasuredTotal < ref[j].MeasuredTotal })
	want := jointFingerprint(&p2.JointPlan{Choices: ref})
	for _, par := range []int{1, 4, 16} {
		got, err := p2.PlanJointCtx(context.Background(), sys, axes, reductions,
			p2.JointOptions{Parallelism: par, Measure: p2.MeasureRerank})
		if err != nil {
			t.Fatal(err)
		}
		if g := jointFingerprint(got); g != want {
			t.Errorf("parallelism %d: measured joint ranking differs from serial reference:\ngot:\n%swant:\n%s",
				par, g, want)
		}
	}
}

// countdownCtx is a context whose Err turns Canceled after n checks: a
// work clock instead of a wall clock, so a test can cut a plan at every
// point the engine looks — and repeat the cut exactly at parallelism 1.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// jointChoiceFingerprint renders one placement's joint outcome bit for bit:
// the total, the weighted costs, and each reduction's program, algorithm
// assignment and prediction.
func jointChoiceFingerprint(c *p2.JointChoice) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%016x", math.Float64bits(c.Total))
	for i, s := range c.PerReduction {
		fmt.Fprintf(&b, "|%v[%s]@%016x*%016x", s.Program, s.AlgoString(),
			math.Float64bits(s.Predicted), math.Float64bits(c.Costs[i]))
	}
	return b.String()
}

// TestPlanJointCtxCancelledKeepsCompletedPlacements is the joint anytime
// contract, cut at every engine context check over a stride: a cancelled
// joint plan either returns the context error and no result, or a Partial
// ranking whose choices are in (Total, placement order) order and each
// bit-equal to the uncancelled run's choice for the same placement — a
// placement appears only once every reduction was scored.
func TestPlanJointCtxCancelledKeepsCompletedPlacements(t *testing.T) {
	sys, axes := p2.SuperPodSystem(2, 4), []int{8, 8}
	reductions := []p2.Reduction{
		{ReduceAxes: []int{0}, Bytes: 1 << 30},
		{ReduceAxes: []int{1}, Bytes: 1 << 26, Count: 48, Algos: p2.ExtendedAlgorithms},
	}
	matrices, err := p2.Placements(sys, axes)
	if err != nil {
		t.Fatal(err)
	}
	order := map[string]int{}
	for i, m := range matrices {
		order[m.String()] = i
	}
	full, err := p2.PlanJointCtx(context.Background(), sys, axes, reductions, p2.JointOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, c := range full.Choices {
		want[c.Matrix.String()] = jointChoiceFingerprint(c)
	}
	probe := newCountdown(math.MaxInt64)
	if _, err := p2.PlanJointCtx(probe, sys, axes, reductions, p2.JointOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	checks := math.MaxInt64 - probe.left.Load()
	step := max(1, checks/40)
	partials := 0
	for _, par := range []int{1, 4} {
		for _, k := range []int{0, 2} {
			for n := int64(0); n <= checks+1; n += step {
				jp, err := p2.PlanJointCtx(newCountdown(n), sys, axes, reductions,
					p2.JointOptions{Parallelism: par, TopK: k})
				where := fmt.Sprintf("parallelism %d TopK %d cut after %d checks", par, k, n)
				if err != nil {
					if !errors.Is(err, context.Canceled) || jp != nil {
						t.Fatalf("%s: (%v, %v), want (nil, context.Canceled)", where, jp, err)
					}
					continue
				}
				wantLen := len(full.Choices)
				if k > 0 {
					wantLen = min(k, wantLen)
				}
				if jp.Partial {
					partials++
				} else if len(jp.Choices) != wantLen {
					t.Fatalf("%s: complete run kept %d choices, want %d", where, len(jp.Choices), wantLen)
				}
				if len(jp.Choices) == 0 || len(jp.Choices) > wantLen {
					t.Fatalf("%s: %d choices (partial %v)", where, len(jp.Choices), jp.Partial)
				}
				for i, c := range jp.Choices {
					if got := jointChoiceFingerprint(c); got != want[c.Matrix.String()] {
						t.Fatalf("%s: choice %v\n got %s\nwant %s", where, c.Matrix, got, want[c.Matrix.String()])
					}
					if i == 0 {
						continue
					}
					prev := jp.Choices[i-1]
					if prev.Total > c.Total || (prev.Total == c.Total && order[prev.Matrix.String()] >= order[c.Matrix.String()]) {
						t.Fatalf("%s: choice %d (%v, %g) ranks after %v (%g)", where, i, c.Matrix, c.Total, prev.Matrix, prev.Total)
					}
				}
			}
		}
	}
	if partials == 0 {
		t.Fatal("no cut produced a partial result: the stride never landed mid-plan")
	}
	t.Logf("%d context checks per uncancelled run; %d cuts came back partial", checks, partials)
}

// TestPlanPrunedStatsConsistent: every streamed placement is either
// synthesized, served from the memo, or bound-pruned.
func TestPlanPrunedStatsConsistent(t *testing.T) {
	res, err := p2.Plan(p2.SuperPodSystem(4, 8), p2.Request{Axes: []int{16, 16}, ReduceAxes: []int{0}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.SynthRuns+s.MemoHits+s.PrunedPlacements != s.Placements {
		t.Errorf("placement accounting broken: %+v", s)
	}
	if s.PrunedPlacements == 0 && s.PrunedPrograms == 0 {
		t.Errorf("no pruning on SuperPod(4,8) TopK=5: %+v", s)
	}
}

// TestPlanMemoizedStats asserts the engine actually reuses synthesis
// across placements that share a reduction hierarchy.
func TestPlanMemoizedStats(t *testing.T) {
	res, err := p2.Plan(p2.SuperPodSystem(2, 4), p2.Request{Axes: []int{8, 8}, ReduceAxes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SynthRuns+res.Stats.MemoHits != res.Stats.Placements {
		t.Errorf("stats don't add up: %+v", res.Stats)
	}
	if res.Stats.SynthRuns >= res.Stats.Placements {
		t.Errorf("no memo sharing on SuperPod(2,4): %+v", res.Stats)
	}
}

// TestPlanStatsPinned pins the planner's work counters at Parallelism 1,
// where they repeat exactly, on the eleven shapes of the bench cold_topk
// workload (top-5, cold memo). A change in what the bounds prune or what
// synthesis runs moves a row; re-record deliberately. Summed over the
// rows: 20 synthesis runs, 74 pruned placements, 4 515 pruned programs,
// 183 candidates (22, 72, 4 701 and 183 before the placement bound grew
// its volume term: superpod:8x8 and 16x32 each drop a synthesis run).
func TestPlanStatsPinned(t *testing.T) {
	for _, r := range []struct {
		system string
		nodes  int
		axes   []int
		reduce []int
		auto   bool
		// Placements, SynthRuns, MemoHits, Candidates, PrunedPlacements,
		// PrunedPrograms, BoundTightenings.
		want [7]int
	}{
		{"a100", 4, []int{8, 8}, []int{0}, false, [7]int{3, 2, 0, 8, 1, 88, 3}},
		{"a100", 4, []int{8, 8}, []int{0}, true, [7]int{3, 2, 0, 5, 1, 91, 1}},
		{"a100", 4, []int{4, 4, 4}, []int{0, 2}, false, [7]int{6, 3, 1, 38, 2, 244, 23}},
		{"v100", 4, []int{4, 8}, []int{1}, false, [7]int{3, 3, 0, 38, 0, 151, 23}},
		{"superpod:2x4", 0, []int{8, 8}, []int{0}, false, [7]int{6, 2, 0, 8, 4, 88, 3}},
		{"superpod:3x4", 0, []int{12, 8}, []int{0}, false, [7]int{3, 2, 1, 19, 0, 1802, 10}},
		{"superpod:3x4", 0, []int{12, 8}, []int{0}, true, [7]int{3, 2, 1, 18, 0, 1803, 10}},
		{"superpod:4x8", 0, []int{16, 16}, []int{0}, false, [7]int{10, 1, 0, 14, 9, 79, 6}},
		{"superpod:4x8", 0, []int{4, 8, 8}, []int{0}, false, [7]int{35, 1, 5, 14, 29, 4, 2}},
		{"superpod:8x8", 0, []int{32, 16}, []int{0}, false, [7]int{12, 1, 0, 11, 11, 82, 6}},
		{"superpod:16x32", 0, []int{64, 64}, []int{0}, false, [7]int{18, 1, 0, 10, 17, 83, 4}},
	} {
		sys, err := p2.ParseSystem(r.system, r.nodes)
		if err != nil {
			t.Fatal(err)
		}
		req := p2.Request{Axes: r.axes, ReduceAxes: r.reduce, TopK: 5, Parallelism: 1}
		if r.auto {
			req.Algos = p2.ExtendedAlgorithms
		}
		res, err := p2.Plan(sys, req)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		got := [7]int{s.Placements, s.SynthRuns, s.MemoHits, s.Candidates, s.PrunedPlacements, s.PrunedPrograms, s.BoundTightenings}
		if got != r.want {
			t.Errorf("%s %v reduce %v auto=%v: counters %v, want %v", r.system, r.axes, r.reduce, r.auto, got, r.want)
		}
	}
}

// scaleLinks returns sys with every uplink's bandwidth scaled by 2^k and
// its latency by 2^−k, overrides kept.
func scaleLinks(t *testing.T, sys *p2.System, k int) *p2.System {
	t.Helper()
	links := append([]p2.Link(nil), sys.Uplinks...)
	for i := range links {
		links[i].Bandwidth = math.Ldexp(links[i].Bandwidth, k)
		links[i].Latency = math.Ldexp(links[i].Latency, -k)
	}
	scaled, err := p2.NewSystem(sys.Name, sys.Levels, links)
	if err == nil && len(sys.Overrides) > 0 {
		scaled, err = scaled.WithOverrides(sys.Overrides...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return scaled
}

// TestPlanScalesWithLinks is a metamorphic property of the whole planner:
// scaling every bandwidth by 2^k and every latency by 2^−k scales every
// prediction by exactly 2^−k (power-of-two scaling commutes with rounding,
// so bit for bit) and changes nothing else — p2.Plan on the
// determinism-matrix systems returns the same ranking and the same Stats,
// the pruning counters included, for the full ranking and a top 5.
func TestPlanScalesWithLinks(t *testing.T) {
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, topK := range []int{0, 5} {
				req := p2.Request{Axes: tc.axes, ReduceAxes: tc.red, Algos: tc.algos, TopK: topK, Parallelism: 1}
				base, err := p2.Plan(tc.sys, req)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{-3, 5} {
					got, err := p2.Plan(scaleLinks(t, tc.sys, k), req)
					if err != nil {
						t.Fatal(err)
					}
					want := &p2.PlanResult{Strategies: make([]*p2.Strategy, len(base.Strategies))}
					for i, s := range base.Strategies {
						c := *s
						c.Predicted = math.Ldexp(s.Predicted, -k)
						want.Strategies[i] = &c
					}
					if g, w := planFingerprint(got), planFingerprint(want); g != w {
						t.Errorf("top %d, links ×2^%d: ranking differs from the pristine one scaled by 2^%d:\n%s\nwant\n%s", topK, k, -k, g, w)
					}
					gs, ws := got.Stats, base.Stats
					gs.SynthElapsed, ws.SynthElapsed = 0, 0
					if gs != ws {
						t.Errorf("top %d, links ×2^%d: stats %+v, pristine %+v", topK, k, gs, ws)
					}
				}
			}
		})
	}
}
