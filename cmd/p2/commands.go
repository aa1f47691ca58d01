package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"slices"
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

// body runs a command on its resolved invocation.
type body func(e *env) error

// command is one row of the CLI's command table.
type command struct {
	name string
	// summary is the help text; its continuation lines are indented under
	// the first.
	summary string
	// flags are the shared flags the command honours, space-separated:
	// the only ones it registers, so the flag parser refuses the rest.
	flags string
	// setup registers the command's own flags and returns its body.
	setup func(fs *flag.FlagSet) body
}

// sharedFlags holds the values of the flags several commands share. A
// command registers only the ones it honours; the others keep the
// defaults register gives them.
type sharedFlags struct {
	system, axes, reduce, algo, matrix, measure, cpuprofile string
	nodes, parallelism, topk                                int
	bytes                                                   float64
	timeout                                                 time.Duration
	stats                                                   bool
}

// env is one resolved invocation: the shared flag values, the system and
// planning request they describe, the request as the engine plans it, and
// the command's deadline.
type env struct {
	sharedFlags
	out, errOut io.Writer
	ctx         context.Context
	sys         *topology.System // nil unless the command honours -system
	req         p2.Request
	spec        plan.JointSpec // req resolved (plan.Resolve) when sys is set
}

// run executes one invocation of the command. Flag-parse errors and usage
// go to errOut (stderr in production): stdout stays reserved for command
// output, so piping a failed invocation never mixes diagnostics into it.
func (c *command) run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.SetOutput(errOut)
	e := &env{out: out, errOut: errOut, ctx: context.Background()}
	e.register(fs, c.flags)
	body := c.setup(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := e.resolve(fs); err != nil {
		return err
	}
	if e.timeout > 0 {
		var cancel context.CancelFunc
		e.ctx, cancel = context.WithTimeout(e.ctx, e.timeout)
		defer cancel()
	}
	if e.cpuprofile == "" {
		return body(e)
	}
	f, err := os.Create(e.cpuprofile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	defer pprof.StopCPUProfile()
	return body(e)
}

// register defines every shared flag on a scratch set and moves the named
// ones onto fs.
func (e *env) register(fs *flag.FlagSet, names string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.StringVar(&e.system, "system", "a100", "system preset: a100, v100, fig2a, or superpod[:PxN] (P pods × N nodes, default 2x4)")
	all.IntVar(&e.nodes, "nodes", 4, "number of nodes of the a100/v100 presets (an error on fig2a and superpod)")
	all.StringVar(&e.axes, "axes", "", `parallelism axes, e.g. "[4 16]"`)
	all.StringVar(&e.reduce, "reduce", "[0]", `reduction axes, e.g. "[0]" or "[0 2]"`)
	all.StringVar(&e.algo, "algo", "Ring", "NCCL algorithm (case-insensitive): Ring, Tree, HalvingDoubling, or auto to search the per-step assignment")
	all.StringVar(&e.matrix, "matrix", "", `restrict to one matrix, e.g. "[[2 2] [2 8]]"`)
	all.IntVar(&e.parallelism, "parallelism", 0, "planner worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	all.IntVar(&e.topk, "topk", 0, "keep only the K fastest-predicted strategies (0 = all); also arms bound pruning")
	all.Float64Var(&e.bytes, "bytes", 0, "per-device payload in bytes (0 = paper default, 2^29 × machines float32)")
	all.StringVar(&e.measure, "measure", "off", "measured-in-the-loop planning: off, rerank (re-rank the analytic top-K on the emulator), or rank-all (measure every candidate)")
	all.DurationVar(&e.timeout, "timeout", 0, "planning deadline, e.g. 500ms; past it ranking commands return the best-so-far ranking labeled PARTIAL, sweep commands abort (0 = none)")
	all.BoolVar(&e.stats, "stats", false, "report planning-engine statistics (memoization, pruning and measurement counters)")
	all.StringVar(&e.cpuprofile, "cpuprofile", "", "write a CPU profile of the command to this file")
	for _, name := range strings.Fields(names) {
		f := all.Lookup(name)
		fs.Var(f.Value, f.Name, f.Usage)
	}
}

// resolve turns the shared flag values into the system and the planning
// request. Only a registered -system or -axes is resolved (-axes has no
// usable default); every other field parses its default when unregistered.
// -nodes reaches p2.ParseSystem only when given, so that a node count on a
// fixed-shape preset is refused instead of ignored.
func (e *env) resolve(fs *flag.FlagSet) (err error) {
	if fs.Lookup("system") != nil {
		nodes := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "nodes" {
				nodes = e.nodes
			}
		})
		if e.sys, err = p2.ParseSystem(e.system, nodes); err != nil {
			return err
		}
	}
	if err := p2.CheckPayload(e.bytes); err != nil {
		return fmt.Errorf("-bytes %w", err)
	}
	if e.timeout < 0 {
		// A negative deadline would silently mean none.
		return fmt.Errorf("-timeout must not be negative (got %v)", e.timeout)
	}
	r := &e.req
	if fs.Lookup("axes") != nil {
		if r.Axes, err = placement.ParseVector(e.axes); err != nil {
			return err
		}
	}
	if r.ReduceAxes, err = placement.ParseVector(e.reduce); err != nil {
		return err
	}
	if r.Algo, r.Algos, err = p2.ParseAlgorithms(e.algo); err != nil {
		return err
	}
	if r.Measure, err = p2.ParseMeasureMode(e.measure); err != nil {
		return err
	}
	if e.matrix != "" {
		if r.Matrix, err = p2.ParseMatrix(e.sys, r.Axes, e.matrix); err != nil {
			return err
		}
	}
	r.Bytes, r.Parallelism, r.TopK = e.bytes, e.parallelism, e.topk
	if e.sys != nil {
		e.spec, err = plan.Resolve(e.sys, plan.Reduction{Axes: r.Axes, ReduceAxes: r.ReduceAxes, Algo: r.Algo, Algos: r.Algos, Bytes: r.Bytes})
	}
	return err
}

// evalConfig is the request as an eval sweep: every matrix, unpruned,
// every program measured.
func (e *env) evalConfig() eval.Config {
	return eval.Config{Sys: e.sys, Axes: e.req.Axes, ReduceAxes: e.spec.ReduceAxes, Algos: e.spec.Algos, Bytes: e.spec.Model.Bytes}
}

// hierarchy builds the reduction hierarchy of matrix m the request plans
// on.
func (e *env) hierarchy(m *placement.Matrix) (*hierarchy.Hierarchy, error) {
	return hierarchy.Build(hierarchy.KindReductionAxes, m, e.spec.ReduceAxes, hierarchy.Options{Collapse: e.spec.Collapse})
}

// printStats reports the planning-engine counters when -stats is set.
// Memoization counters are deterministic; the pruning counters depend on
// worker timing (how early the shared threshold tightened), so they are
// opt-in rather than part of the default (reproducible) output. The
// measurement counters (deterministic again) appear only when a measured
// mode actually emulated something.
func (e *env) printStats(s plan.Stats) {
	if !e.stats {
		return
	}
	fmt.Fprintf(e.out, "planning: %d placements (%d bound-pruned), %d synth runs (%d programs, %.1f ms), %d memo hits, %d candidates scored (%d pruned early, %d bound tightenings)\n",
		s.Placements, s.PrunedPlacements, s.SynthRuns, s.SynthPrograms, s.SynthElapsed.Seconds()*1e3, s.MemoHits,
		s.Candidates, s.PrunedPrograms, s.BoundTightenings)
	if s.MeasuredCandidates > 0 {
		fmt.Fprintf(e.out, "measured: %d candidates emulated, %d analytic-vs-measured rank inversions\n",
			s.MeasuredCandidates, s.RankInversions)
	}
}

func cmdPlacements(*flag.FlagSet) body {
	return func(e *env) error {
		ms, err := placement.Enumerate(e.sys.Hierarchy(), e.req.Axes)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.out, "system %s %v, axes %v: %d placements (naive space: %v)\n",
			e.sys.Name, e.sys.Hierarchy(), e.req.Axes, len(ms), placement.NaivePlacementCount(e.req.Axes))
		for i, m := range ms {
			fmt.Fprintf(e.out, "  %2d: %s\n", i+1, m)
		}
		return nil
	}
}

func cmdSynth(fs *flag.FlagSet) body {
	top := fs.Int("top", 10, "show only the fastest-predicted N programs (0 = all)")
	return func(e *env) error {
		plan, err := p2.PlanCtx(e.ctx, e.sys, e.req)
		if err != nil {
			return err
		}
		out := e.out
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
		e.printStats(plan.Stats)
		return nil
	}
}

func cmdEval(fs *flag.FlagSet) body {
	tsv := fs.Bool("tsv", false, "emit TSV instead of markdown")
	return func(e *env) error {
		cfg := e.evalConfig()
		if len(cfg.Algos) > 1 {
			// Auto mode: contrast the searched per-step assignment against
			// the paper's pinned Ring and Tree sweeps.
			ring, tree, auto, err := eval.RunAutoComparisonCtx(e.ctx, cfg)
			if err != nil {
				return err
			}
			emit(e.out, eval.BuildAutoComparison(ring, tree, auto), *tsv)
			return nil
		}
		r, err := eval.RunCtx(e.ctx, cfg)
		if err != nil {
			return err
		}
		emit(e.out, eval.BuildTable4([]*eval.Result{r}), *tsv)
		return nil
	}
}

func cmdExport(*flag.FlagSet) body {
	return func(e *env) error {
		r, err := eval.RunCtx(e.ctx, e.evalConfig())
		if err != nil {
			return err
		}
		data, err := eval.ToJSON([]*eval.Result{r})
		if err != nil {
			return err
		}
		_, err = e.out.Write(append(data, '\n'))
		return err
	}
}

func cmdHLO(fs *flag.FlagSet) body {
	progStr := fs.String("program", "", `program text, e.g. "(0, InsideGroup, AllReduce)"; empty = best predicted`)
	elems := fs.Int("elems", 1<<22, "per-device f32 element count")
	return func(e *env) error {
		if e.req.Matrix == nil {
			return fmt.Errorf("hlo requires -matrix")
		}
		var lp *lower.Program
		if *progStr != "" {
			// With an explicit program nothing is planned, so neither the
			// payload nor a measured mode nor a deadline can influence the
			// emitted HLO (element count comes from -elems).
			var err error
			fs.Visit(func(f *flag.Flag) {
				if err == nil && slices.Contains([]string{"algo", "bytes", "measure", "parallelism", "timeout", "topk"}, f.Name) {
					err = fmt.Errorf(`-%s has no effect on "hlo -program" (nothing is planned; use -elems for the HLO shape)`, f.Name)
				}
			})
			if err != nil {
				return err
			}
			h, err := e.hierarchy(e.req.Matrix)
			if err != nil {
				return err
			}
			prog, err := p2.ParseProgram(*progStr)
			if err != nil {
				return err
			}
			if lp, err = lower.Lower(prog, h); err != nil {
				return err
			}
		} else {
			plan, err := p2.PlanCtx(e.ctx, e.sys, e.req)
			if err != nil {
				return err
			}
			if plan.Partial {
				// The module text must stay machine-parseable, so the anytime
				// caveat goes to stderr.
				fmt.Fprintln(e.errOut, "p2: PARTIAL: -timeout expired mid-plan; emitting the best-so-far strategy")
			}
			lp = plan.Best().Lowered()
		}
		src, err := xla.Emit(lp, *elems)
		if err != nil {
			return err
		}
		_, err = io.WriteString(e.out, src)
		return err
	}
}

func cmdVerify(fs *flag.FlagSet) body {
	progStr := fs.String("program", "", "verify only this program (empty = all synthesized)")
	return func(e *env) error {
		matrices := []*placement.Matrix{e.req.Matrix}
		if e.req.Matrix == nil {
			var err error
			if matrices, err = placement.Enumerate(e.sys.Hierarchy(), e.req.Axes); err != nil {
				return err
			}
		}
		total := 0
		for _, m := range matrices {
			h, err := e.hierarchy(m)
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
				if err := verify.Check(lp, m, e.req.ReduceAxes, 2); err != nil {
					return fmt.Errorf("matrix %v program %v: %w", m, prog, err)
				}
				total++
			}
			fmt.Fprintf(e.out, "matrix %v: %d programs verified on concrete data\n", m, len(progs))
		}
		fmt.Fprintf(e.out, "OK: %d lowered programs compute exact reduction sums\n", total)
		return nil
	}
}

func cmdTrace(fs *flag.FlagSet) body {
	progStr := fs.String("program", "", "program text; empty = best predicted")
	outPath := fs.String("o", "", "write Chrome trace JSON to this file (default stdout)")
	summary := fs.Bool("summary", false, "print a per-step summary instead of the JSON")
	return func(e *env) error {
		if e.stats && !*summary {
			// The JSON output must stay parseable; only the summary form has
			// room for the stats line.
			return fmt.Errorf("-stats requires -summary for trace")
		}
		plan, err := p2.PlanCtx(e.ctx, e.sys, e.req)
		if err != nil {
			return err
		}
		if plan.Partial {
			// The JSON output must stay machine-parseable, so the anytime
			// caveat goes to stderr.
			fmt.Fprintln(e.errOut, "p2: PARTIAL: -timeout expired mid-plan; tracing the best-so-far strategy")
		}
		strat := plan.Best()
		if *progStr != "" {
			prog, err := p2.ParseProgram(*progStr)
			if err != nil {
				return err
			}
			found := false
			for _, s := range plan.Strategies {
				if s.Program.String() == prog.String() && (e.req.Matrix == nil || s.Matrix.String() == strat.Matrix.String()) {
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
			fmt.Fprintf(e.out, "strategy: %v via %v [%s]\n", strat.Matrix, strat.Program, strat.AlgoString())
			fmt.Fprintf(e.out, "emulated total: %.4f s, %d transfers\n", total, len(col.Events))
			for _, s := range col.Summarize() {
				fmt.Fprintf(e.out, "  step %d %-14s %5d transfers %10.1f MB  [%.4f, %.4f] s\n",
					s.Step, s.Op, s.Transfers, s.Bytes/1e6, s.Start, s.End)
			}
			e.printStats(plan.Stats)
			return nil
		}
		w := e.out
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return col.WriteChrome(w, e.sys)
	}
}

func cmdTables(fs *flag.FlagSet) body {
	table := fs.String("table", "4", "which table: 3, 4 or appendix")
	tsv := fs.Bool("tsv", false, "emit TSV instead of markdown")
	return func(e *env) error {
		switch *table {
		case "3":
			var axesList [][]int
			for _, cc := range eval.PaperCases(e.sys.NumDevices(), false) {
				if len(cc.Axes) == 2 {
					axesList = append(axesList, cc.Axes)
				}
			}
			t, err := eval.BuildTable3(e.sys, axesList)
			if err != nil {
				return err
			}
			emit(e.out, t, *tsv)
		case "4":
			suite := eval.Suite{Sys: e.sys, Cases: eval.PaperCases(e.sys.NumDevices(), e.nodes >= 4)}
			rs, err := eval.RunSuiteCtx(e.ctx, suite, eval.PaperModes[:2]...)
			if err != nil {
				return err
			}
			emit(e.out, eval.BuildTable4(rs), *tsv)
		case "appendix":
			var all []*eval.Result
			for _, s := range eval.PaperSuites() {
				rs, err := eval.RunSuiteCtx(e.ctx, s, eval.PaperModes[:2]...)
				if err != nil {
					return err
				}
				all = append(all, rs...)
			}
			emit(e.out, eval.BuildAppendix(all), *tsv)
		default:
			return fmt.Errorf("unknown table %q", *table)
		}
		return nil
	}
}

func cmdFigure11(fs *flag.FlagSet) body {
	panel := fs.String("panel", "a", "panel a (V100 ring [2 16] red axis 1) or b (A100 tree [4 2 8] red axes {0,2})")
	chart := fs.Bool("chart", false, "render an ASCII chart instead of the table")
	tsv := fs.Bool("tsv", false, "emit TSV instead of markdown")
	return func(e *env) error {
		var cfg eval.Config
		switch *panel {
		case "a":
			cfg = eval.Config{Sys: topology.V100System(4), Axes: []int{2, 16},
				ReduceAxes: []int{1}, Algos: []cost.Algorithm{cost.Ring}}
		case "b":
			cfg = eval.Config{Sys: topology.A100System(4), Axes: []int{4, 2, 8},
				ReduceAxes: []int{0, 2}, Algos: []cost.Algorithm{cost.Tree}}
		default:
			return fmt.Errorf("unknown panel %q", *panel)
		}
		r, err := eval.RunCtx(e.ctx, cfg)
		if err != nil {
			return err
		}
		if *chart {
			_, err = io.WriteString(e.out, eval.Figure11Chart(r))
			return err
		}
		emit(e.out, eval.BuildFigure11(r), *tsv)
		return nil
	}
}

func cmdAccuracy(fs *flag.FlagSet) body {
	tsv := fs.Bool("tsv", false, "emit TSV instead of markdown")
	pinnedOnly := fs.Bool("pinned-only", false, "skip the auto-mode sweeps (Ring/Tree rows only; roughly halves the runtime)")
	jsonOut := fs.Bool("json", false, "emit the auto-mode sweeps as JSON (predicted/measured best per sweep, per-system accuracy and disagreement rate) instead of the table")
	return func(e *env) error {
		if *jsonOut && *pinnedOnly {
			return fmt.Errorf("-json exports the auto-mode sweeps; it cannot be combined with -pinned-only")
		}
		if *jsonOut && *tsv {
			return fmt.Errorf("-json replaces the table output; it cannot be combined with -tsv")
		}
		modes := eval.PaperModes
		switch {
		case *pinnedOnly:
			modes = modes[:2]
		case *jsonOut:
			modes = modes[2:] // the JSON export covers only the auto sweeps
		}
		var all []*eval.Result
		for _, s := range eval.PaperSuites() {
			rs, err := eval.RunSuiteCtx(e.ctx, s, modes...)
			if err != nil {
				return err
			}
			all = append(all, rs...)
		}
		if *jsonOut {
			data, err := eval.AutoSuiteToJSON(all)
			if err != nil {
				return err
			}
			_, err = e.out.Write(append(data, '\n'))
			return err
		}
		emit(e.out, eval.BuildTable5(all), *tsv)
		return nil
	}
}

// faultList collects repeated -fault flags; each value may itself hold
// several ';'-separated fault clauses (topology.ParseFaults).
type faultList []string

func (f *faultList) String() string { return strings.Join(*f, ";") }

func (f *faultList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func cmdDegrade(fs *flag.FlagSet) body {
	var faults faultList
	fs.Var(&faults, "fault", `link fault "LEVEL:ENTITY:EFFECT[,EFFECT...]" — LEVEL a level or uplink name (or index), ENTITY coords like 0/1 (or an entity id, or *), EFFECT one of down, bw*F, bw/F, lat*F, lat/F, loss=F; repeatable, ';' separates clauses`)
	top := fs.Int("top", 10, "show only the N best degraded strategies (0 = all)")
	tsv := fs.Bool("tsv", false, "emit TSV instead of markdown")
	return func(e *env) error {
		if len(faults) == 0 {
			return fmt.Errorf(`degrade requires at least one -fault (e.g. -fault "gpu:0/0/0:bw/10")`)
		}
		var overrides []topology.LinkOverride
		for _, spec := range faults {
			ovs, err := topology.ParseFaults(e.sys, spec)
			if err != nil {
				return err
			}
			overrides = append(overrides, ovs...)
		}
		r := e.req
		res, err := eval.RunDegradeCtx(e.ctx, eval.DegradeConfig{
			Sys:         e.sys,
			Overrides:   overrides,
			Axes:        r.Axes,
			ReduceAxes:  r.ReduceAxes,
			Algos:       e.spec.Algos,
			Bytes:       r.Bytes,
			Parallelism: r.Parallelism,
		})
		if err != nil {
			return err
		}
		out := e.out
		fmt.Fprintf(out, "system %s %v with %d link override(s), axes %v, reduce %v: %d candidates\n",
			e.sys.Name, e.sys.Hierarchy(), len(overrides), r.Axes, r.ReduceAxes, len(res.PristineRank))
		fmt.Fprintf(out, "ranking shift: %d of %d pairs flipped (tau-distance %.4f)\n",
			res.Inversions, res.MaxPairs, res.Tau)
		pb, db := res.PristineRank[0], res.DegradedRank[0]
		switch {
		case res.BestShifted:
			fmt.Fprintf(out, "best strategy shifted: pristine winner %v via %v now costs %s; re-planning picks %v via %v at %s (%s)\n",
				pb.Matrix, pb.Program, degradeTime(res.StaleTime),
				db.Matrix, db.Program, degradeTime(res.ReplanTime),
				replanGain(res.ReplanSpeedup))
		case math.IsInf(res.ReplanTime, 1):
			fmt.Fprintf(out, "no strategy avoids the down link: all %d candidates never complete, the pristine winner %v via %v (%s pristine) among them\n",
				len(res.DegradedRank), pb.Matrix, pb.Program, degradeTime(pb.Predicted))
		default:
			fmt.Fprintf(out, "best strategy unchanged: %v via %v (%s pristine, %s degraded)\n",
				pb.Matrix, pb.Program, degradeTime(pb.Predicted), degradeTime(res.StaleTime))
		}
		k := *top
		if k > 0 && r.TopK > 0 && r.TopK < k {
			k = r.TopK
		}
		emit(out, eval.BuildDegradeTable(res, k), *tsv)
		return nil
	}
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
