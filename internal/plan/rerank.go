package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"p2/internal/cost"
	"p2/internal/netsim"
)

// RerankMode selects measured-in-the-loop planning: whether — and over how
// much of the candidate space — the analytic ranking is re-ordered by
// emulated (netsim) runtimes. The analytic stage is untouched by the
// choice except that RerankAll disables top-K pruning (see below), so
// every §6.1 pruning invariant continues to hold for the candidates the
// analytic stage keeps.
type RerankMode int

const (
	// RerankOff ranks purely analytically (the default; exactly the
	// pre-measured-mode behavior).
	RerankOff RerankMode = iota
	// RerankTopK measures the analytic top-K survivors on the emulator
	// and re-sorts those K candidates by measured time. Cost: K extra
	// emulations on top of an unchanged (still bound-pruned) analytic
	// stage. With TopK = 0 the "survivors" are the full ranking, so the
	// mode degenerates to RerankAll.
	RerankTopK
	// RerankAll measures every candidate and orders the whole space by
	// measured time, truncating to TopK afterwards. The analytic bounds
	// say nothing about measured order, so this mode disables top-K
	// pruning in the analytic stage and pays one emulation per candidate
	// — the exhaustive reference against which RerankTopK is validated.
	RerankAll
)

// String names the mode the way the CLI spells it.
func (m RerankMode) String() string {
	switch m {
	case RerankTopK:
		return "rerank"
	case RerankAll:
		return "rank-all"
	default:
		return "off"
	}
}

// ParseRerankMode parses a mode name as spelled by String —
// case-insensitively, so CLI surfaces accept "Rerank" like
// cost.ParseAlgorithm accepts "ring". The single shared parser keeps
// every -measure flag (cmd/p2, examples) agreeing on the vocabulary.
func ParseRerankMode(s string) (RerankMode, error) {
	switch strings.ToLower(s) {
	case "off":
		return RerankOff, nil
	case "rerank":
		return RerankTopK, nil
	case "rank-all":
		return RerankAll, nil
	}
	return RerankOff, fmt.Errorf("unknown -measure mode %q (want off, rerank or rank-all)", s)
}

// measuredLess is the total order of a measured re-rank: emulated time
// first, analytic order — (Predicted, MatrixIdx, ProgIdx), the order the
// candidates already arrive in — as the tie-break. Re-sorting the
// analytic ranking stably by Measured produces exactly this order, which
// is what makes the re-ranked output byte-identical at every parallelism
// level: both the measured values (netsim is deterministic) and the
// tie-break are pure functions of the request.
func measuredLess(a, b *Candidate) bool {
	//p2:nan-ok emulated times are never NaN: netsim returns finite times or +Inf (stalled down links)
	if a.Measured != b.Measured {
		return a.Measured < b.Measured
	}
	return Less(a, b)
}

// fixedAlgo resolves the algorithm every step of a candidate runs when its
// StepAlgos is nil: the single pinned entry of Options.Algos, or the
// model's algorithm — mirroring matrixScorer so that measurement and
// scoring agree on what was planned.
func fixedAlgo(model *cost.Model, opts Options) cost.Algorithm {
	if len(opts.Algos) == 1 {
		return opts.Algos[0]
	}
	return model.Algo
}

// parallelEach runs fn(i) for i in [0, n) over at most `workers`
// goroutines, pulling indices from a shared atomic counter. Results must
// land by index (no cross-item state), which is what keeps every
// measured re-rank independent of the worker count. Cancellation skips
// the remaining indices (each goroutine re-checks ctx before pulling the
// next one); indices already claimed still run to completion.
func parallelEach(ctx context.Context, n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Measure emulates every candidate, filling Candidate.Measured — the
// measurement fan-out of the re-rank stage and of the eval harness, which
// measures a full ranking. Measurements are independent and deterministic
// (netsim's jitter is a pure function of system, algorithm, program and
// seed), so they fan out over the worker pool and land by index — the
// result does not depend on Parallelism. Per-step algorithm assignments
// ride along via MeasureSteps; a uniform assignment is canonicalized inside
// netsim, so a searched candidate that settled on all-Ring measures
// byte-identically to a pinned-Ring run. On cancellation some Measured
// fields are left unfilled or +Inf (the emulator's cancelled sentinel) —
// the caller must treat the whole batch as unusable and discard it.
func Measure(ctx context.Context, cands []*Candidate, model *cost.Model, opts Options) error {
	// One shared read-only Simulator: MeasureSteps never mutates it.
	sim := netsim.Simulator{Sys: model.Sys, Algo: fixedAlgo(model, opts), Bytes: model.Bytes, Opts: opts.SimOpts, Ctx: ctx}
	parallelEach(ctx, len(cands), opts.workers(), func(i int) {
		cands[i].Measured = sim.MeasureSteps(cands[i].Lowered, cands[i].StepAlgos)
	})
	return ctx.Err()
}

// rerank measures the merged analytic ranking and re-sorts it by measured
// time (stable, so analytic order breaks measured ties), recording how
// many candidates were emulated and how far the two rankings disagree.
// On cancellation the half-measured values are zeroed, the analytic order
// is left untouched and ctx.Err() is returned — a partial result never
// mixes measured and unmeasured sort keys.
func rerank(ctx context.Context, cands []*Candidate, model *cost.Model, opts Options, stats *Stats) error {
	if err := Measure(ctx, cands, model, opts); err != nil {
		for _, c := range cands {
			c.Measured = 0
		}
		return err
	}
	stats.MeasuredCandidates += len(cands)
	measured := make([]float64, len(cands))
	for i, c := range cands {
		measured[i] = c.Measured
	}
	stats.RankInversions += CountInversions(measured)
	sort.Slice(cands, func(i, j int) bool { return measuredLess(cands[i], cands[j]) })
	return nil
}

// rerankJoint measures every kept placement's per-reduction winners and
// re-sorts the placements by summed weighted measured time (stable, so
// the analytic (Total, MatrixIdx) order breaks ties). Candidate.Measured
// carries the raw per-reduction emulated seconds; JointCandidate.Measured
// the weighted entries, mirroring Costs. Cancellation mirrors rerank:
// every partially-filled Measured field is reset and the analytic
// placement order survives.
func rerankJoint(ctx context.Context, jcs []*JointCandidate, reds []JointSpec, opts Options, stats *Stats) error {
	parallelEach(ctx, len(jcs), opts.workers(), func(i int) {
		jc := jcs[i]
		jc.Measured = make([]float64, len(reds))
		jc.MeasuredTotal = 0
		for ri, red := range reds {
			c := jc.PerReduction[ri]
			sim := netsim.Simulator{Sys: red.Model.Sys, Algo: fixedAlgo(red.Model, red.options(opts)),
				Bytes: red.Model.Bytes, Opts: opts.SimOpts, Ctx: ctx}
			c.Measured = sim.MeasureSteps(c.Lowered, c.StepAlgos)
			jc.Measured[ri] = red.weight() * c.Measured
			jc.MeasuredTotal += jc.Measured[ri]
		}
	})
	if err := ctx.Err(); err != nil {
		for _, jc := range jcs {
			jc.Measured, jc.MeasuredTotal = nil, 0
			for _, c := range jc.PerReduction {
				c.Measured = 0
			}
		}
		return err
	}
	stats.MeasuredCandidates += len(jcs) * len(reds)
	totals := make([]float64, len(jcs))
	for i, jc := range jcs {
		totals[i] = jc.MeasuredTotal
	}
	stats.RankInversions += CountInversions(totals)
	sort.Slice(jcs, func(i, j int) bool {
		//p2:nan-ok measured totals are weighted sums of never-NaN emulated times (finite or +Inf)
		if jcs[i].MeasuredTotal != jcs[j].MeasuredTotal {
			return jcs[i].MeasuredTotal < jcs[j].MeasuredTotal
		}
		return jointLess(jcs[i], jcs[j])
	})
	return nil
}

// CountInversions counts the pairs i < j with vals[i] > vals[j] — the
// Kendall-tau distance between the order the values arrive in and their
// sorted order, i.e. how many pairwise comparisons a second ranking
// settles differently from the first when vals holds the second ranking's
// scores walked in first-ranking order. Measured re-ranking uses it for
// analytic-vs-emulated disagreement; the degraded-scenario eval for
// pristine-vs-degraded ranking shift. O(n log n) merge count, since
// rank-all runs it over the full cross-product.
func CountInversions(vals []float64) int {
	if len(vals) < 2 {
		return 0
	}
	work := make([]float64, len(vals))
	buf := make([]float64, len(vals))
	copy(work, vals)
	return mergeCount(work, buf, 0, len(work))
}

// mergeCount sorts work[lo:hi] ascending and returns its inversion count.
func mergeCount(work, buf []float64, lo, hi int) int {
	if hi-lo < 2 {
		return 0
	}
	mid := (lo + hi) / 2
	inv := mergeCount(work, buf, lo, mid) + mergeCount(work, buf, mid, hi)
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if work[j] < work[i] {
			// Everything left in the first half is > work[j]: mid-i inversions.
			inv += mid - i
			buf[k] = work[j]
			j++
		} else {
			buf[k] = work[i]
			i++
		}
		k++
	}
	copy(buf[k:hi], work[i:mid])
	copy(buf[k+mid-i:hi], work[j:hi])
	copy(work[lo:hi], buf[lo:hi])
	return inv
}
