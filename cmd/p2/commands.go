package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"p2"
	"p2/internal/cost"
	"p2/internal/eval"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/plan"
	"p2/internal/synth"
	"p2/internal/topology"
	"p2/internal/trace"
	"p2/internal/verify"
	"p2/internal/xla"
)

// commonFlags bundles the flags shared by most subcommands.
type commonFlags struct {
	fs          *flag.FlagSet
	sysName     *string
	nodes       *int
	axes        *string
	reduce      *string
	algo        *string
	matrix      *string
	parallelism *int
	topk        *int
	bytes       *float64
	measure     *string
	timeout     *time.Duration
	stats       *bool
	cpuprofile  *string
}

// newCommon builds a subcommand's flag set. Flag-parse errors and usage
// go to errOut (stderr in production): stdout stays reserved for command
// output, so piping a failed invocation never mixes diagnostics into it.
func newCommon(name string, errOut io.Writer) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(errOut)
	return &commonFlags{
		fs:          fs,
		sysName:     fs.String("system", "a100", "system preset: a100, v100, fig2a, or superpod[:PxN] (P pods × N nodes, default 2x4)"),
		nodes:       fs.Int("nodes", 4, "number of nodes (a100/v100 presets)"),
		axes:        fs.String("axes", "", `parallelism axes, e.g. "[4 16]"`),
		reduce:      fs.String("reduce", "[0]", `reduction axes, e.g. "[0]" or "[0 2]"`),
		algo:        fs.String("algo", "Ring", "NCCL algorithm (case-insensitive): Ring, Tree, HalvingDoubling, or auto to search the per-step assignment"),
		matrix:      fs.String("matrix", "", `restrict to one matrix, e.g. "[[2 2] [2 8]]"`),
		parallelism: fs.Int("parallelism", 0, "planner worker pool size (0 = GOMAXPROCS, 1 = sequential)"),
		topk:        fs.Int("topk", 0, "keep only the K fastest-predicted strategies (0 = all); also arms bound pruning"),
		bytes:       fs.Float64("bytes", 0, "per-device payload in bytes (0 = paper default, 2^29 × machines float32)"),
		measure:     fs.String("measure", "off", "measured-in-the-loop planning: off, rerank (re-rank the analytic top-K on the emulator), or rank-all (measure every candidate)"),
		timeout:     fs.Duration("timeout", 0, "planning deadline, e.g. 500ms; past it ranking commands return the best-so-far ranking labeled PARTIAL, sweep commands abort (0 = none)"),
		stats:       fs.Bool("stats", false, "report planning-engine statistics (memoization, pruning and measurement counters)"),
		cpuprofile:  fs.String("cpuprofile", "", "write a CPU profile of the command to this file"),
	}
}

func (c *commonFlags) system() (*topology.System, error) {
	return buildSystem(*c.sysName, *c.nodes)
}

// profiled runs fn under the optional -cpuprofile collection.
func (c *commonFlags) profiled(fn func() error) error {
	if *c.cpuprofile == "" {
		return fn()
	}
	f, err := os.Create(*c.cpuprofile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	defer pprof.StopCPUProfile()
	return fn()
}

// printStats reports the planning-engine counters when -stats is set.
// Memoization counters are deterministic; the pruning counters depend on
// worker timing (how early the shared threshold tightened), so they are
// opt-in rather than part of the default (reproducible) output. The
// measurement counters (deterministic again) appear only when a measured
// mode actually emulated something.
func (c *commonFlags) printStats(out io.Writer, s plan.Stats) {
	if !*c.stats {
		return
	}
	fmt.Fprintf(out, "planning: %d placements (%d bound-pruned), %d synth runs (%d programs, %.1f ms), %d memo hits, %d candidates scored (%d pruned early, %d bound tightenings)\n",
		s.Placements, s.PrunedPlacements, s.SynthRuns, s.SynthPrograms, s.SynthElapsed.Seconds()*1e3, s.MemoHits,
		s.Candidates, s.PrunedPrograms, s.BoundTightenings)
	if s.MeasuredCandidates > 0 {
		fmt.Fprintf(out, "measured: %d candidates emulated, %d analytic-vs-measured rank inversions\n",
			s.MeasuredCandidates, s.RankInversions)
	}
}

// measureMode parses the -measure flag.
func (c *commonFlags) measureMode() (p2.MeasureMode, error) {
	return p2.ParseMeasureMode(*c.measure)
}

// planCtx returns the command's planning context: Background, bounded by
// -timeout when set. The caller must invoke the cancel function.
func (c *commonFlags) planCtx() (context.Context, context.CancelFunc) {
	if *c.timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), *c.timeout)
}

// requireNoTimeout rejects -timeout on commands that never plan —
// silently ignoring it would let the user believe the deadline was
// enforced.
func (c *commonFlags) requireNoTimeout(path string) error {
	if *c.timeout != 0 {
		return fmt.Errorf("-timeout has no effect on %s", path)
	}
	return nil
}

// requireNoMeasure rejects -measure on commands whose output it cannot
// influence — silently ignoring it would let the user believe the numbers
// were emulator-ranked.
func (c *commonFlags) requireNoMeasure(path string) error {
	if mode, err := c.measureMode(); err != nil {
		return err
	} else if mode != p2.MeasureOff {
		return fmt.Errorf("-measure has no effect on %s", path)
	}
	return nil
}

// requireNoStats rejects -stats on commands that have no planning
// statistics to report, or whose output must stay machine-parseable —
// silently ignoring the flag would misreport that no pruning happened.
func (c *commonFlags) requireNoStats() error {
	if *c.stats {
		return fmt.Errorf("-stats is not supported by %q (use synth, or trace -summary)", c.fs.Name())
	}
	return nil
}

// requireNoBytes rejects -bytes on commands (or command paths) whose
// output does not depend on the payload — silently ignoring it would let
// the user believe the numbers were computed at the requested size.
func (c *commonFlags) requireNoBytes(path string) error {
	if *c.bytes != 0 {
		return fmt.Errorf("-bytes has no effect on %s", path)
	}
	return nil
}

// parsed resolves the shared flags. With -algo auto, algo is Ring (the
// base) and algos carries the searched set (cost.ExtendedAlgorithms);
// otherwise algos is nil and algo is the pinned algorithm.
func (c *commonFlags) parsed() (axes, red []int, algo cost.Algorithm, algos []cost.Algorithm, err error) {
	if *c.bytes < 0 {
		// Request.Bytes treats <= 0 as "use the paper default"; letting a
		// negative through would silently plan at ~17 GB instead of the
		// requested size.
		return nil, nil, 0, nil, fmt.Errorf("-bytes must be positive (got %g)", *c.bytes)
	}
	axes, err = placement.ParseVector(*c.axes)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	red, err = placement.ParseVector(*c.reduce)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	if strings.EqualFold(*c.algo, "auto") {
		return axes, red, cost.Ring, cost.ExtendedAlgorithms, nil
	}
	if algo, err = cost.ParseAlgorithm(*c.algo); err != nil {
		// ParseAlgorithm doesn't know about the CLI-level auto mode; its
		// error must still offer it.
		err = fmt.Errorf("%w (or \"auto\" to search the per-step assignment)", err)
	}
	return axes, red, algo, nil, err
}

func buildSystem(name string, nodes int) (*topology.System, error) {
	return p2.ParseSystem(name, nodes)
}

// planFor wraps p2.PlanCtx with optional matrix restriction and engine
// options from the CLI flags; -timeout bounds the plan, and past it the
// result comes back with Partial set (the anytime contract — callers
// label it).
func (c *commonFlags) planFor(sys *topology.System, axes, red []int, algo cost.Algorithm, algos []cost.Algorithm) (*p2.PlanResult, error) {
	measure, err := c.measureMode()
	if err != nil {
		return nil, err
	}
	req := p2.Request{Axes: axes, ReduceAxes: red, Algo: algo, Algos: algos,
		Parallelism: *c.parallelism, TopK: *c.topk, Bytes: *c.bytes, Measure: measure}
	if *c.matrix != "" {
		m, err := p2.ParseMatrix(sys, axes, *c.matrix)
		if err != nil {
			return nil, err
		}
		req.Matrix = m
	}
	ctx, cancel := c.planCtx()
	defer cancel()
	return p2.PlanCtx(ctx, sys, req)
}

func cmdPlacements(args []string, out, errOut io.Writer) error {
	c := newCommon("placements", errOut)
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if err := c.requireNoTimeout(`"placements" (it only enumerates matrices)`); err != nil {
		return err
	}
	sys, err := c.system()
	if err != nil {
		return err
	}
	axes, err := placement.ParseVector(*c.axes)
	if err != nil {
		return err
	}
	if err := c.requireNoStats(); err != nil {
		return err
	}
	if err := c.requireNoBytes(`"placements" (it only enumerates matrices)`); err != nil {
		return err
	}
	if err := c.requireNoMeasure(`"placements" (it only enumerates matrices)`); err != nil {
		return err
	}
	return c.profiled(func() error {
		ms, err := placement.Enumerate(sys.Hierarchy(), axes)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "system %s %v, axes %v: %d placements (naive space: %v)\n",
			sys.Name, sys.Hierarchy(), axes, len(ms), placement.NaivePlacementCount(axes))
		for i, m := range ms {
			fmt.Fprintf(out, "  %2d: %s\n", i+1, m)
		}
		return nil
	})
}

func cmdSynth(args []string, out, errOut io.Writer) error {
	c := newCommon("synth", errOut)
	top := c.fs.Int("top", 10, "show only the fastest-predicted N programs (0 = all)")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	sys, err := c.system()
	if err != nil {
		return err
	}
	axes, red, algo, algos, err := c.parsed()
	if err != nil {
		return err
	}
	return c.profiled(func() error {
		plan, err := c.planFor(sys, axes, red, algo, algos)
		if err != nil {
			return err
		}
		if plan.Partial {
			fmt.Fprintln(out, "PARTIAL: -timeout expired mid-plan; this is the best-so-far ranking, not necessarily a prefix of the full one")
		}
		measured := plan.Request.Measure != p2.MeasureOff
		n := len(plan.Strategies)
		if measured {
			fmt.Fprintf(out, "%d strategies (placement × program), fastest measured first (-measure %s):\n",
				n, plan.Request.Measure)
		} else {
			fmt.Fprintf(out, "%d strategies (placement × program), fastest predicted first:\n", n)
		}
		if *top > 0 && *top < n {
			n = *top
		}
		for i := 0; i < n; i++ {
			s := plan.Strategies[i]
			if measured {
				fmt.Fprintf(out, "  %2d: %9.3fs meas %9.3fs pred  %-18v %-16s %v\n",
					i+1, s.Measured, s.Predicted, s.Matrix, s.AlgoString(), s.Program)
			} else {
				fmt.Fprintf(out, "  %2d: %9.3fs  %-18v %-16s %v\n", i+1, s.Predicted, s.Matrix, s.AlgoString(), s.Program)
			}
		}
		c.printStats(out, plan.Stats)
		return nil
	})
}

func cmdEval(args []string, out, errOut io.Writer) error {
	c := newCommon("eval", errOut)
	tsv := c.fs.Bool("tsv", false, "emit TSV instead of markdown")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	sys, err := c.system()
	if err != nil {
		return err
	}
	axes, red, algo, algos, err := c.parsed()
	if err != nil {
		return err
	}
	if err := c.requireNoStats(); err != nil {
		return err
	}
	if err := c.requireNoMeasure(`"eval" (its sweeps always measure every program)`); err != nil {
		return err
	}
	cfg := eval.Config{Sys: sys, Axes: axes, ReduceAxes: red, Algo: algo, Algos: algos, Bytes: *c.bytes}
	return c.profiled(func() error {
		ctx, cancel := c.planCtx()
		defer cancel()
		if len(algos) > 1 {
			// Auto mode: contrast the searched per-step assignment against
			// the paper's pinned Ring and Tree sweeps.
			ring, tree, auto, err := eval.RunAutoComparisonCtx(ctx, cfg)
			if err != nil {
				return err
			}
			emit(out, eval.BuildAutoComparison(ring, tree, auto), *tsv)
			return nil
		}
		r, err := eval.RunCtx(ctx, cfg)
		if err != nil {
			return err
		}
		emit(out, eval.BuildTable4([]*eval.Result{r}), *tsv)
		return nil
	})
}

func cmdExport(args []string, out, errOut io.Writer) error {
	c := newCommon("export", errOut)
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	sys, err := c.system()
	if err != nil {
		return err
	}
	axes, red, algo, algos, err := c.parsed()
	if err != nil {
		return err
	}
	if err := c.requireNoStats(); err != nil {
		return err
	}
	if err := c.requireNoMeasure(`"export" (its sweeps always measure every program)`); err != nil {
		return err
	}
	return c.profiled(func() error {
		ctx, cancel := c.planCtx()
		defer cancel()
		r, err := eval.RunCtx(ctx, eval.Config{Sys: sys, Axes: axes, ReduceAxes: red, Algo: algo, Algos: algos, Bytes: *c.bytes})
		if err != nil {
			return err
		}
		data, err := eval.ToJSON([]*eval.Result{r})
		if err != nil {
			return err
		}
		_, err = out.Write(append(data, '\n'))
		return err
	})
}

func cmdHLO(args []string, out, errOut io.Writer) error {
	c := newCommon("hlo", errOut)
	progStr := c.fs.String("program", "", `program text, e.g. "(0, InsideGroup, AllReduce)"; empty = best predicted`)
	elems := c.fs.Int("elems", 1<<22, "per-device f32 element count")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	sys, err := c.system()
	if err != nil {
		return err
	}
	axes, red, algo, algos, err := c.parsed()
	if err != nil {
		return err
	}
	if *c.matrix == "" {
		return fmt.Errorf("hlo requires -matrix")
	}
	if err := c.requireNoStats(); err != nil {
		return err
	}
	if *progStr != "" {
		// With an explicit program nothing is planned, so neither the
		// payload nor a measured mode can influence the emitted HLO
		// (element count comes from -elems).
		if err := c.requireNoBytes(`"hlo -program" (use -elems for the HLO shape)`); err != nil {
			return err
		}
		if err := c.requireNoMeasure(`"hlo -program" (nothing is planned)`); err != nil {
			return err
		}
		if err := c.requireNoTimeout(`"hlo -program" (nothing is planned)`); err != nil {
			return err
		}
	}
	return c.profiled(func() error {
		m, err := placement.ParseMatrix(*c.matrix, sys.Hierarchy(), axes)
		if err != nil {
			return err
		}
		h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red,
			hierarchy.Options{Collapse: len(red) > 1})
		if err != nil {
			return err
		}
		var lp *lower.Program
		if *progStr != "" {
			prog, err := p2.ParseProgram(*progStr)
			if err != nil {
				return err
			}
			if lp, err = lower.Lower(prog, h); err != nil {
				return err
			}
		} else {
			plan, err := c.planFor(sys, axes, red, algo, algos)
			if err != nil {
				return err
			}
			if plan.Partial {
				// The module text must stay machine-parseable, so the anytime
				// caveat goes to stderr.
				fmt.Fprintln(errOut, "p2: PARTIAL: -timeout expired mid-plan; emitting the best-so-far strategy")
			}
			lp = plan.Best().Lowered()
		}
		src, err := xla.Emit(lp, *elems)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, src)
		return err
	})
}

func cmdVerify(args []string, out, errOut io.Writer) error {
	c := newCommon("verify", errOut)
	progStr := c.fs.String("program", "", "verify only this program (empty = all synthesized)")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if err := c.requireNoTimeout(`"verify" (it executes on small concrete data)`); err != nil {
		return err
	}
	sys, err := c.system()
	if err != nil {
		return err
	}
	axes, red, _, _, err := c.parsed()
	if err != nil {
		return err
	}
	if err := c.requireNoStats(); err != nil {
		return err
	}
	if err := c.requireNoBytes(`"verify" (it executes on small concrete data)`); err != nil {
		return err
	}
	if err := c.requireNoMeasure(`"verify" (it executes on small concrete data)`); err != nil {
		return err
	}
	return c.profiled(func() error {
		var matrices []*placement.Matrix
		if *c.matrix != "" {
			m, err := placement.ParseMatrix(*c.matrix, sys.Hierarchy(), axes)
			if err != nil {
				return err
			}
			matrices = []*placement.Matrix{m}
		} else if matrices, err = placement.Enumerate(sys.Hierarchy(), axes); err != nil {
			return err
		}
		total := 0
		for _, m := range matrices {
			h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red,
				hierarchy.Options{Collapse: len(red) > 1})
			if err != nil {
				return err
			}
			var progs []p2.Program
			if *progStr != "" {
				prog, err := p2.ParseProgram(*progStr)
				if err != nil {
					return err
				}
				progs = []p2.Program{prog}
			} else {
				progs = synth.Synthesize(h, synth.Options{}).Programs
			}
			for _, prog := range progs {
				lp, err := lower.Lower(prog, h)
				if err != nil {
					return fmt.Errorf("matrix %v program %v: %w", m, prog, err)
				}
				if err := verify.Check(lp, m, red, 2); err != nil {
					return fmt.Errorf("matrix %v program %v: %w", m, prog, err)
				}
				total++
			}
			fmt.Fprintf(out, "matrix %v: %d programs verified on concrete data\n", m, len(progs))
		}
		fmt.Fprintf(out, "OK: %d lowered programs compute exact reduction sums\n", total)
		return nil
	})
}

func cmdTrace(args []string, out, errOut io.Writer) error {
	c := newCommon("trace", errOut)
	progStr := c.fs.String("program", "", "program text; empty = best predicted")
	outPath := c.fs.String("o", "", "write Chrome trace JSON to this file (default stdout)")
	summary := c.fs.Bool("summary", false, "print a per-step summary instead of the JSON")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	sys, err := c.system()
	if err != nil {
		return err
	}
	axes, red, algo, algos, err := c.parsed()
	if err != nil {
		return err
	}
	if *c.stats && !*summary {
		// The JSON output must stay parseable; only the summary form has
		// room for the stats line.
		return fmt.Errorf("-stats requires -summary for trace")
	}
	return c.profiled(func() error {
		plan, err := c.planFor(sys, axes, red, algo, algos)
		if err != nil {
			return err
		}
		if plan.Partial {
			// The JSON output must stay machine-parseable, so the anytime
			// caveat goes to stderr.
			fmt.Fprintln(errOut, "p2: PARTIAL: -timeout expired mid-plan; tracing the best-so-far strategy")
		}
		strat := plan.Best()
		if *progStr != "" {
			prog, err := p2.ParseProgram(*progStr)
			if err != nil {
				return err
			}
			found := false
			for _, s := range plan.Strategies {
				if s.Program.String() == prog.String() && (*c.matrix == "" || s.Matrix.String() == strat.Matrix.String()) {
					strat, found = s, true
					break
				}
			}
			if !found {
				return fmt.Errorf("program %q was not synthesized for this request", *progStr)
			}
		}
		// Trace through the strategy so the request's (defaulted) payload and
		// any per-step algorithm assignment are honored.
		col := &trace.Collector{}
		total, events := strat.Trace()
		col.Events = events
		if *summary {
			fmt.Fprintf(out, "strategy: %v via %v [%s]\n", strat.Matrix, strat.Program, strat.AlgoString())
			fmt.Fprintf(out, "emulated total: %.4f s, %d transfers\n", total, len(col.Events))
			for _, s := range col.Summarize() {
				fmt.Fprintf(out, "  step %d %-14s %5d transfers %10.1f MB  [%.4f, %.4f] s\n",
					s.Step, s.Op, s.Transfers, s.Bytes/1e6, s.Start, s.End)
			}
			c.printStats(out, plan.Stats)
			return nil
		}
		w := out
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return col.WriteChrome(w, sys)
	})
}

func cmdTables(args []string, out, errOut io.Writer) error {
	c := newCommon("tables", errOut)
	table := c.fs.String("table", "4", "which table: 3, 4 or appendix")
	tsv := c.fs.Bool("tsv", false, "emit TSV instead of markdown")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if err := c.requireNoStats(); err != nil {
		return err
	}
	if err := c.requireNoBytes(`"tables" (paper tables use the paper's payload)`); err != nil {
		return err
	}
	if err := c.requireNoMeasure(`"tables" (paper tables already measure every program)`); err != nil {
		return err
	}
	return c.profiled(func() error {
		return runTables(c, out, *table, *tsv)
	})
}

func runTables(c *commonFlags, out io.Writer, table string, tsv bool) error {
	ctx, cancel := c.planCtx()
	defer cancel()
	switch table {
	case "3":
		sys, err := c.system()
		if err != nil {
			return err
		}
		var axesList [][]int
		for _, cc := range eval.PaperCases(sys.NumDevices(), false) {
			if len(cc.Axes) == 2 {
				axesList = append(axesList, cc.Axes)
			}
		}
		t, err := eval.BuildTable3(sys, axesList)
		if err != nil {
			return err
		}
		emit(out, t, tsv)
	case "4":
		sys, err := c.system()
		if err != nil {
			return err
		}
		suite := eval.Suite{Sys: sys, Cases: eval.PaperCases(sys.NumDevices(), *c.nodes >= 4)}
		rs, err := eval.RunSuiteCtx(ctx, suite, []cost.Algorithm{cost.Ring, cost.Tree})
		if err != nil {
			return err
		}
		emit(out, eval.BuildTable4(rs), tsv)
	case "appendix":
		var all []*eval.Result
		for _, s := range eval.PaperSuites() {
			rs, err := eval.RunSuiteCtx(ctx, s, []cost.Algorithm{cost.Ring, cost.Tree})
			if err != nil {
				return err
			}
			all = append(all, rs...)
		}
		emit(out, eval.BuildAppendix(all), tsv)
	default:
		return fmt.Errorf("unknown table %q", table)
	}
	return nil
}

func cmdFigure11(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("figure11", flag.ContinueOnError)
	fs.SetOutput(errOut)
	panel := fs.String("panel", "a", "panel a (V100 ring [2 16] red axis 1) or b (A100 tree [4 2 8] red axes {0,2})")
	chart := fs.Bool("chart", false, "render an ASCII chart instead of the table")
	tsv := fs.Bool("tsv", false, "emit TSV instead of markdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg eval.Config
	switch *panel {
	case "a":
		cfg = eval.Config{Sys: topology.V100System(4), Axes: []int{2, 16},
			ReduceAxes: []int{1}, Algo: cost.Ring}
	case "b":
		cfg = eval.Config{Sys: topology.A100System(4), Axes: []int{4, 2, 8},
			ReduceAxes: []int{0, 2}, Algo: cost.Tree}
	default:
		return fmt.Errorf("unknown panel %q", *panel)
	}
	r, err := eval.RunCtx(context.Background(), cfg)
	if err != nil {
		return err
	}
	if *chart {
		_, err = io.WriteString(out, eval.Figure11Chart(r))
		return err
	}
	emit(out, eval.BuildFigure11(r), *tsv)
	return nil
}

func cmdAccuracy(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("accuracy", flag.ContinueOnError)
	fs.SetOutput(errOut)
	tsv := fs.Bool("tsv", false, "emit TSV instead of markdown")
	pinnedOnly := fs.Bool("pinned-only", false, "skip the auto-mode sweeps (Ring/Tree rows only; roughly halves the runtime)")
	jsonOut := fs.Bool("json", false, "emit the auto-mode sweeps as JSON (predicted/measured best per sweep, per-system accuracy and disagreement rate) instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && *pinnedOnly {
		return fmt.Errorf("-json exports the auto-mode sweeps; it cannot be combined with -pinned-only")
	}
	if *jsonOut && *tsv {
		return fmt.Errorf("-json replaces the table output; it cannot be combined with -tsv")
	}
	var all, autos []*eval.Result
	for _, s := range eval.PaperSuites() {
		if !*pinnedOnly {
			auto, err := eval.RunSuiteAutoCtx(context.Background(), s)
			if err != nil {
				return err
			}
			autos = append(autos, auto...)
		}
		if *jsonOut {
			continue // the JSON export covers only the auto sweeps
		}
		rs, err := eval.RunSuiteCtx(context.Background(), s, []cost.Algorithm{cost.Ring, cost.Tree})
		if err != nil {
			return err
		}
		all = append(all, rs...)
	}
	if *jsonOut {
		data, err := eval.AutoSuiteToJSON(autos)
		if err != nil {
			return err
		}
		_, err = out.Write(append(data, '\n'))
		return err
	}
	emit(out, eval.BuildTable5(append(all, autos...)), *tsv)
	return nil
}

// faultList collects repeated -fault flags; each value may itself hold
// several ';'-separated fault clauses (topology.ParseFaults).
type faultList []string

func (f *faultList) String() string { return strings.Join(*f, ";") }

func (f *faultList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func cmdDegrade(args []string, out, errOut io.Writer) error {
	c := newCommon("degrade", errOut)
	var faults faultList
	c.fs.Var(&faults, "fault", `link fault "LEVEL:ENTITY:EFFECT[,EFFECT...]" — LEVEL a level or uplink name (or index), ENTITY coords like 0/1 (or an entity id, or *), EFFECT one of down, bw*F, bw/F, lat*F, lat/F, loss=F; repeatable, ';' separates clauses`)
	top := c.fs.Int("top", 10, "show only the N best degraded strategies (0 = all)")
	tsv := c.fs.Bool("tsv", false, "emit TSV instead of markdown")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if len(faults) == 0 {
		return fmt.Errorf(`degrade requires at least one -fault (e.g. -fault "gpu:0/0/0:bw/10")`)
	}
	sys, err := c.system()
	if err != nil {
		return err
	}
	axes, red, algo, algos, err := c.parsed()
	if err != nil {
		return err
	}
	if err := c.requireNoStats(); err != nil {
		return err
	}
	if err := c.requireNoMeasure(`"degrade" (it compares analytic rankings)`); err != nil {
		return err
	}
	if *c.matrix != "" {
		return fmt.Errorf("-matrix has no effect on degrade (ranking shift needs the full placement space)")
	}
	var overrides []topology.LinkOverride
	for _, spec := range faults {
		ovs, err := topology.ParseFaults(sys, spec)
		if err != nil {
			return err
		}
		overrides = append(overrides, ovs...)
	}
	if len(algos) == 0 {
		algos = []cost.Algorithm{algo}
	}
	return c.profiled(func() error {
		ctx, cancel := c.planCtx()
		defer cancel()
		r, err := eval.RunDegradeCtx(ctx, eval.DegradeConfig{
			Sys:         sys,
			Overrides:   overrides,
			Axes:        axes,
			ReduceAxes:  red,
			Algos:       algos,
			Bytes:       *c.bytes,
			Parallelism: *c.parallelism,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "system %s %v with %d link override(s), axes %v, reduce %v: %d candidates\n",
			sys.Name, sys.Hierarchy(), len(overrides), axes, red, len(r.PristineRank))
		fmt.Fprintf(out, "ranking shift: %d of %d pairs flipped (tau-distance %.4f)\n",
			r.Inversions, r.MaxPairs, r.Tau)
		pb, db := r.PristineRank[0], r.DegradedRank[0]
		if r.BestShifted {
			fmt.Fprintf(out, "best strategy shifted: pristine winner %v via %v now costs %s; re-planning picks %v via %v at %s (%s)\n",
				pb.Matrix, pb.Program, degradeTime(r.StaleTime),
				db.Matrix, db.Program, degradeTime(r.ReplanTime),
				replanGain(r.ReplanSpeedup))
		} else {
			fmt.Fprintf(out, "best strategy unchanged: %v via %v (%s pristine, %s degraded)\n",
				pb.Matrix, pb.Program, degradeTime(pb.Predicted), degradeTime(r.StaleTime))
		}
		k := *top
		if k > 0 && *c.topk > 0 && *c.topk < k {
			k = *c.topk
		}
		emit(out, eval.BuildDegradeTable(r, k), *tsv)
		return nil
	})
}

// degradeTime renders a predicted time, spelling out the +Inf a down link
// produces.
func degradeTime(v float64) string {
	if math.IsInf(v, 1) {
		return "never completes (down link)"
	}
	return fmt.Sprintf("%.3fs", v)
}

// replanGain renders the stale-over-replanned ratio.
func replanGain(v float64) string {
	if math.IsInf(v, 1) {
		return "re-planning avoids a down link the stale plan crosses"
	}
	return fmt.Sprintf("%.2fx faster than keeping the stale plan", v)
}

func emit(out io.Writer, t *eval.Table, tsv bool) {
	if tsv {
		io.WriteString(out, t.TSV())
	} else {
		io.WriteString(out, t.Markdown())
	}
}
