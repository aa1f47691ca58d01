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

// Measure emulates every candidate, filling Candidate.Measured — the
// measurement fan-out of the re-rank stage and of the eval harness, which
// measures a full ranking. Measurements are independent and deterministic
// (netsim's jitter is a pure function of system, algorithm, program and
// seed), so workers pull indices from a shared counter and land results
// by index — the result does not depend on Parallelism. A candidate runs
// its own Algo and StepAlgos, which the engine canonicalized, so a
// searched candidate that settled on all-Ring measures byte-identically
// to a pinned-Ring run. Workers re-check ctx before each index, so
// on cancellation some Measured fields are left unfilled or +Inf (the
// emulator's cancelled sentinel) — the caller must treat the whole batch as
// unusable and discard it.
func Measure(ctx context.Context, cands []*Candidate, model *cost.Model, opts Options) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(opts.workers(), len(cands)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := netsim.Simulator{Sys: model.Sys, Bytes: model.Bytes, Opts: opts.SimOpts, Ctx: ctx}
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				sim.Algo = cands[i].Algo
				cands[i].Measured = sim.MeasureSteps(cands[i].Lowered(), cands[i].StepAlgos)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// rerank measures the merged analytic ranking and re-sorts it by measured
// time, the analytic order breaking measured ties — exactly the stable
// re-sort of the analytic ranking by measured time. That is what makes a
// re-ranked result byte-identical at every parallelism level: the
// measured values (netsim is deterministic) and the tie-break are pure
// functions of the request. It records how many emulator runs it made
// and how far the two rankings disagree. On cancellation every measured
// field is cleared, the analytic order is left untouched and ctx.Err() is
// returned — a partial result never mixes measured and unmeasured sort
// keys.
func rerank[T any](ctx context.Context, items []T, sh shape[T], stats *Stats) error {
	runs := sh.measure(ctx, items)
	if err := ctx.Err(); err != nil {
		for _, x := range items {
			sh.unmeasure(x)
		}
		return err
	}
	stats.MeasuredCandidates += runs
	measured := make([]float64, len(items))
	for i, x := range items {
		measured[i] = sh.measured(x)
	}
	stats.RankInversions += CountInversions(measured)
	sort.Slice(items, func(i, j int) bool {
		a, b := sh.measured(items[i]), sh.measured(items[j])
		//p2:nan-ok emulated times are never NaN: netsim returns finite times or +Inf (stalled down links)
		if a != b {
			return a < b
		}
		return sh.less(items[i], items[j])
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
