package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"p2/internal/cost"
	"p2/internal/placement"
	"p2/internal/topology"
)

// Table is a rendered experiment artifact: a caption, a header row, and
// data rows, serializable as markdown or TSV.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Caption)
	}
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

// TSV renders the table as tab-separated values (no caption).
func (t *Table) TSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, "\t") + "\n")
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, "\t") + "\n")
	}
	return b.String()
}

func secs(v float64) string {
	switch {
	case v >= 10:
		return fmt.Sprintf("%.2f", v)
	case v >= 0.095:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// BuildTable3 reproduces Table 3: AllReduce time per parallelism matrix
// for ring and tree, reducing on each axis of two-axis configurations.
func BuildTable3(sys *topology.System, axesList [][]int) (*Table, error) {
	t := &Table{
		Caption: fmt.Sprintf("Table 3 — AllReduce reduction time in seconds on %s (%s)",
			sys.Name, sys),
		Header: []string{"Parallelism axes", "Parallelism matrix",
			"Reduce axis 0 / Ring", "Reduce axis 0 / Tree",
			"Reduce axis 1 / Ring", "Reduce axis 1 / Tree"},
	}
	for _, axes := range axesList {
		matrices, err := placement.Enumerate(sys.Hierarchy(), axes)
		if err != nil {
			return nil, err
		}
		for _, m := range matrices {
			row := []string{fmt.Sprintf("%v", axes), m.String()}
			for _, red := range [][]int{{0}, {1}} {
				if red[0] >= len(axes) {
					row = append(row, "-", "-")
					continue
				}
				for _, algo := range []cost.Algorithm{cost.Ring, cost.Tree} {
					cfg := Config{Sys: sys, Axes: axes, ReduceAxes: red, Algo: algo}
					_, meas, err := MeasureBaseline(cfg, m)
					if err != nil {
						return nil, err
					}
					row = append(row, secs(meas))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// BuildTable4 reproduces Table 4: for every sweep, the synthesis time,
// outperforming/total counts, and per matrix the AllReduce time, the
// optimal synthesized program's time and the speedup.
func BuildTable4(results []*Result) *Table {
	t := &Table{
		Caption: "Table 4 — AllReduce vs. synthesized optimal reduction strategy (measured seconds)",
		Header: []string{"System", "Algo", "Axes", "Reduce", "Synthesis (s)",
			"Outperform/Total", "Matrix", "AllReduce", "Optimal", "Speedup",
			"Optimal program", "Optimal algo"},
	}
	for _, r := range results {
		first := true
		for _, mr := range r.Matrices {
			best := mr.Programs[mr.BestMeasured()]
			lead := []string{"", "", "", "", "", ""}
			if first {
				lead = []string{
					r.Config.Sys.Name,
					r.Config.algoLabel(),
					fmt.Sprintf("%v", r.Config.Axes),
					fmt.Sprintf("%v", r.Config.ReduceAxes),
					fmt.Sprintf("%.3f", r.SynthesisTime.Seconds()),
					fmt.Sprintf("%d/%d", r.TotalOutperforming(), r.TotalPrograms()),
				}
				first = false
			}
			t.Rows = append(t.Rows, append(lead,
				mr.Matrix.String(),
				secs(mr.Baseline().Measured),
				secs(best.Measured),
				fmt.Sprintf("%.2f×", mr.Speedup()),
				best.Program.String(),
				best.AlgoString(),
			))
		}
	}
	return t
}

// RunAutoComparisonCtx executes the fixed-Ring, fixed-Tree and auto
// (cfg.Algos, default ExtendedAlgorithms) sweeps of one config, for
// comparing the searched per-step algorithm assignment against the
// paper's pinned NCCL_ALGO settings; cancellation aborts all three sweeps
// with ctx.Err().
func RunAutoComparisonCtx(ctx context.Context, cfg Config) (ring, tree, auto *Result, err error) {
	fixedRing, fixedTree := cfg, cfg
	fixedRing.Algos, fixedRing.Algo = nil, cost.Ring
	fixedTree.Algos, fixedTree.Algo = nil, cost.Tree
	if len(cfg.Algos) < 2 {
		cfg.Algos = cost.ExtendedAlgorithms
	}
	// The three sweeps redo the same synthesis and lowering, differing
	// only in scoring; run them concurrently so the shared portion costs
	// wall-clock once.
	results := make([]*Result, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, c := range []Config{fixedRing, fixedTree, cfg} {
		wg.Add(1)
		go func(i int, c Config) {
			defer wg.Done()
			results[i], errs[i] = RunCtx(ctx, c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return results[0], results[1], results[2], nil
}

// BuildAutoComparison tabulates the three sweeps of RunAutoComparisonCtx per
// matrix: the measured-best strategy under pinned Ring, pinned Tree and
// the auto search, the auto winner's assignment, and its measured speedup
// over the fixed-Ring best. Rows where auto strictly beats both pinned
// algorithms are marked "auto".
func BuildAutoComparison(ring, tree, auto *Result) *Table {
	t := &Table{
		Caption: fmt.Sprintf("Algorithm search — fixed NCCL_ALGO vs. per-step auto on %s (best measured seconds per matrix)",
			auto.Config),
		Header: []string{"Matrix", "Ring", "Tree", "Auto", "Auto assignment",
			"vs Ring", "Winner"},
	}
	for mi, amr := range auto.Matrices {
		rBest := ring.Matrices[mi].Programs[ring.Matrices[mi].BestMeasured()].Measured
		tBest := tree.Matrices[mi].Programs[tree.Matrices[mi].BestMeasured()].Measured
		aProg := amr.Programs[amr.BestMeasured()]
		winner := "Ring"
		switch {
		case aProg.Measured < rBest && aProg.Measured < tBest:
			winner = "auto"
		case tBest < rBest:
			winner = "Tree"
		}
		t.Rows = append(t.Rows, []string{
			amr.Matrix.String(),
			secs(rBest),
			secs(tBest),
			secs(aProg.Measured),
			aProg.AlgoString(),
			fmt.Sprintf("%.2f×", rBest/aProg.Measured),
			winner,
		})
	}
	return t
}

// BuildTable5 reproduces (and extends) Table 5: top-k accuracy of the
// analytic simulator against emulator measurements, grouped by system and
// algorithm mode — pinned rows as in the paper, plus an "auto" row per
// system when auto-mode sweeps (RunSuiteAutoCtx) are included — with the
// mean predicted and measured best times and the analytic-vs-measured
// disagreement rate (the fraction of sweeps whose predicted argmin is not
// the measured argmin, i.e. 100% − Top-1), followed by one Total row per
// algorithm mode.
func BuildTable5(results []*Result) *Table {
	ks := []int{1, 2, 3, 5, 6, 10}
	t := &Table{
		Caption: "Table 5 — analytic-simulator prediction accuracy (fraction of sweeps whose measured-best program is in the top-k predictions), with mean best-candidate times and the analytic-vs-measured disagreement rate",
		Header: []string{"System", "Algo", "Top-1", "Top-2", "Top-3", "Top-5", "Top-6", "Top-10",
			"Pred best (s)", "Meas best (s)", "Disagree", "Sweeps"},
	}
	type key struct{ sys, algo string }
	groups := map[key][]*Result{}
	var keys []key
	algoSeen := map[string]bool{}
	var algos []string
	for _, r := range results {
		k := key{r.Config.Sys.Name, r.Config.algoLabel()}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
		if !algoSeen[k.algo] {
			algoSeen[k.algo] = true
			algos = append(algos, k.algo)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sys != keys[j].sys {
			return keys[i].sys < keys[j].sys
		}
		return keys[i].algo < keys[j].algo
	})
	addRow := func(sys, algo string, rs []*Result) {
		acc := Accuracy(rs, ks)
		row := []string{sys, algo}
		for _, k := range ks {
			row = append(row, fmt.Sprintf("%.1f%%", 100*acc[k]))
		}
		pred, meas := 0.0, 0.0
		for _, r := range rs {
			pred += r.PredictedBest().Predicted
			meas += r.MeasuredBest().Measured
		}
		n := float64(len(rs))
		row = append(row,
			secs(pred/n),
			secs(meas/n),
			fmt.Sprintf("%.1f%%", 100*DisagreementRate(rs)),
			fmt.Sprintf("%d", len(rs)))
		t.Rows = append(t.Rows, row)
	}
	for _, k := range keys {
		addRow(k.sys, k.algo, groups[k])
	}
	sort.Strings(algos)
	for _, algo := range algos {
		var rs []*Result
		for _, r := range results {
			if r.Config.algoLabel() == algo {
				rs = append(rs, r)
			}
		}
		addRow("Total", algo, rs)
	}
	return t
}

// BuildFigure11 reproduces one panel of Figure 11: every (matrix, program)
// pair of a sweep in increasing order of measured time, with the analytic
// prediction alongside.
func BuildFigure11(r *Result) *Table {
	t := &Table{
		Caption: fmt.Sprintf("Figure 11 — simulation vs. measurement for %s (sorted by measured time)", r.Config),
		Header:  []string{"Rank", "Matrix", "Program", "Measured (s)", "Predicted (s)"},
	}
	pairs := r.Pairs()
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].Measured < pairs[b].Measured })
	for i, p := range pairs {
		mr := r.Matrices[p.MatrixIdx]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			mr.Matrix.String(),
			mr.Programs[p.ProgramIdx].Program.String(),
			secs(p.Measured),
			secs(p.Predicted),
		})
	}
	return t
}

// BuildAppendix reproduces the appendix table: for every sweep, synthesis
// and simulation wall-clock, program counts, and per matrix the AllReduce
// time, optimal time and speedup — the full-results form of Table 4.
func BuildAppendix(results []*Result) *Table {
	t := &Table{
		Caption: "Appendix A — full experiment results",
		Header: []string{"System", "Axes", "Reduce", "Algo", "Synthesis (s)",
			"Sim (s)", "Outperform/Total", "Matrix", "AllReduce", "Optimal", "Speedup"},
	}
	for _, r := range results {
		for _, mr := range r.Matrices {
			best := mr.Programs[mr.BestMeasured()]
			t.Rows = append(t.Rows, []string{
				r.Config.Sys.Name,
				fmt.Sprintf("%v", r.Config.Axes),
				fmt.Sprintf("%v", r.Config.ReduceAxes),
				r.Config.Algo.String(),
				fmt.Sprintf("%.3f", r.SynthesisTime.Seconds()),
				fmt.Sprintf("%.3f", r.SimulationTime.Seconds()),
				fmt.Sprintf("%d/%d", mr.Outperforming(), len(mr.Programs)),
				mr.Matrix.String(),
				secs(mr.Baseline().Measured),
				secs(best.Measured),
				fmt.Sprintf("%.2f×", mr.Speedup()),
			})
		}
	}
	return t
}
