// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// both times the relevant pipeline stage and — once per `go test -bench`
// invocation — prints the regenerated artifact rows, so that
//
//	go test -bench=. -benchmem
//
// emits the full set of reproduced tables alongside the timings.
// EXPERIMENTS.md records a reference run.
package p2_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"p2"
	"p2/internal/collective"
	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/eval"
	"p2/internal/hierarchy"
	"p2/internal/load"
	"p2/internal/lower"
	"p2/internal/netsim"
	"p2/internal/placement"
	"p2/internal/plan"
	"p2/internal/synth"
	"p2/internal/topology"
	"p2/internal/verify"
	"p2/internal/xla"
)

var printOnce sync.Map

// printArtifact emits a regenerated artifact exactly once per process.
func printArtifact(key, body string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", key, body)
	}
}

func mustMatrix(b *testing.B, hier, axes []int, rows [][]int) *placement.Matrix {
	b.Helper()
	m, err := placement.NewMatrix(hier, axes, rows)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// planCounters plans req once at parallelism 1, where every plan.Stats
// counter is deterministic, and returns the run's Stats.
func planCounters(b *testing.B, sys *p2.System, req p2.Request) plan.Stats {
	b.Helper()
	req.Parallelism = 1
	res, err := p2.Plan(sys, req)
	if err != nil {
		b.Fatal(err)
	}
	return res.Stats
}

// reportCounters reports a tracked row's work counters, taken from a
// parallelism-1 run of its shape: placements streamed and cut by the
// bound, synthesis runs, candidates scored and programs cut.
// scripts/benchjson records them as exact values, and `CHECK=1
// scripts/bench.sh` fails when one differs from BENCH_plan.json. Call it
// after the timed loop: ResetTimer clears reported metrics.
func reportCounters(b *testing.B, st plan.Stats) {
	b.ReportMetric(float64(st.Placements), "placements")
	b.ReportMetric(float64(st.PrunedPlacements), "pruned-placements")
	b.ReportMetric(float64(st.SynthRuns), "synth-runs")
	b.ReportMetric(float64(st.Candidates), "candidates")
	b.ReportMetric(float64(st.PrunedPrograms), "pruned-programs")
}

// --- Table 1: synthesis hierarchies --------------------------------------

func BenchmarkTable1Hierarchies(b *testing.B) {
	m := mustMatrix(b, []int{1, 2, 2, 4}, []int{4, 4},
		[][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	var body string
	for _, kind := range hierarchy.Kinds {
		h := hierarchy.MustBuild(kind, m, []int{1}, hierarchy.Options{KeepUnitLevels: true})
		body += fmt.Sprintf("%-16s %v\n", kind, h)
	}
	printArtifact("Table 1 — synthesis hierarchies for [[1 1 2 2] [1 2 1 2]], reduce axis 1", body)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, kind := range hierarchy.Kinds {
			hierarchy.MustBuild(kind, m, []int{1}, hierarchy.Options{})
		}
	}
}

// --- Table 2: slice/form device groups -----------------------------------

func BenchmarkTable2Groups(b *testing.B) {
	m := mustMatrix(b, []int{1, 2, 2, 4}, []int{16}, [][]int{{1, 2, 2, 4}})
	h := hierarchy.MustBuild(hierarchy.KindSystem, m, []int{0}, hierarchy.Options{})
	sys := topology.Fig2aSystem()
	ins := []struct {
		label string
		in    dsl.Instruction
	}{
		{"CPU, InsideGroup", dsl.Instruction{Slice: 2, Form: dsl.InsideGroup}},
		{"CPU, Parallel(server)", dsl.Instruction{Slice: 2, Form: dsl.Parallel, Arg: 1}},
		{"CPU, Parallel(rack)", dsl.Instruction{Slice: 2, Form: dsl.Parallel, Arg: 0}},
		{"CPU, Master(rack)", dsl.Instruction{Slice: 2, Form: dsl.Master, Arg: 0}},
		{"server, InsideGroup", dsl.Instruction{Slice: 1, Form: dsl.InsideGroup}},
		{"server, Parallel(rack)", dsl.Instruction{Slice: 1, Form: dsl.Parallel, Arg: 0}},
		{"rack, InsideGroup", dsl.Instruction{Slice: 0, Form: dsl.InsideGroup}},
	}
	var body string
	for _, c := range ins {
		groups := c.in.Groups(h)
		body += fmt.Sprintf("%-24s", c.label)
		for _, g := range groups {
			body += "{"
			for i, u := range g {
				if i > 0 {
					body += ","
				}
				body += sys.DeviceName(u)
			}
			body += "}"
		}
		body += "\n"
	}
	printArtifact("Table 2 — hierarchical communication patterns for Fig. 2a", body)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range ins {
			c.in.Groups(h)
		}
	}
}

// --- Table 3: AllReduce across parallelism matrices ----------------------

func benchTable3(b *testing.B, sys *topology.System, axesList [][]int, key string) {
	t, err := eval.BuildTable3(sys, axesList)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact(key, t.Markdown())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.BuildTable3(sys, axesList); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3A100(b *testing.B) {
	benchTable3(b, topology.A100System(4),
		[][]int{{2, 32}, {4, 16}, {8, 8}},
		"Table 3 (A100 rows A/B/C) — AllReduce time across matrices")
}

func BenchmarkTable3V100(b *testing.B) {
	benchTable3(b, topology.V100System(4),
		[][]int{{8, 4}},
		"Table 3 (V100 rows E) — AllReduce time across matrices")
}

// --- Table 4: synthesized optimal vs AllReduce ---------------------------

func benchTable4(b *testing.B, cfg eval.Config, key string) {
	r, err := eval.RunCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact(key, eval.BuildTable4([]*eval.Result{r}).Markdown())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4RowF(b *testing.B) {
	benchTable4(b, eval.Config{Sys: topology.A100System(2), Axes: []int{8, 4},
		ReduceAxes: []int{0}, Algos: []cost.Algorithm{cost.Ring}},
		"Table 4 row F — 2-node A100, Ring, axes [8 4]")
}

func BenchmarkTable4RowG(b *testing.B) {
	benchTable4(b, eval.Config{Sys: topology.A100System(4), Axes: []int{4, 16},
		ReduceAxes: []int{0}, Algos: []cost.Algorithm{cost.Tree}},
		"Table 4 row G — 4-node A100, Tree, axes [4 16]")
}

func BenchmarkTable4RowH(b *testing.B) {
	benchTable4(b, eval.Config{Sys: topology.A100System(4), Axes: []int{16, 2, 2},
		ReduceAxes: []int{0, 2}, Algos: []cost.Algorithm{cost.Ring}},
		"Table 4 row H — 4-node A100, Ring, axes [16 2 2], reduce {0,2}")
}

func BenchmarkTable4RowI(b *testing.B) {
	benchTable4(b, eval.Config{Sys: topology.A100System(4), Axes: []int{2, 2, 16},
		ReduceAxes: []int{0, 2}, Algos: []cost.Algorithm{cost.Ring}},
		"Table 4 row I — 4-node A100, Ring, axes [2 2 16], reduce {0,2}")
}

func BenchmarkTable4RowJ(b *testing.B) {
	benchTable4(b, eval.Config{Sys: topology.A100System(4), Axes: []int{64},
		ReduceAxes: []int{0}, Algos: []cost.Algorithm{cost.Tree}},
		"Table 4 row J — 4-node A100, Tree, axes [64]")
}

func BenchmarkTable4RowK(b *testing.B) {
	benchTable4(b, eval.Config{Sys: topology.V100System(4), Axes: []int{8, 2, 2},
		ReduceAxes: []int{0, 2}, Algos: []cost.Algorithm{cost.Ring}},
		"Table 4 row K — 4-node V100, Ring, axes [8 2 2], reduce {0,2}")
}

func BenchmarkTable4RowL(b *testing.B) {
	benchTable4(b, eval.Config{Sys: topology.V100System(4), Axes: []int{32},
		ReduceAxes: []int{0}, Algos: []cost.Algorithm{cost.Ring}},
		"Table 4 row L — 4-node V100, Ring, axes [32]")
}

// --- Table 5: simulator accuracy (full suite) -----------------------------

func BenchmarkTable5Accuracy(b *testing.B) {
	// Pinned Ring/Tree rows (the paper's table) plus the auto-mode rows
	// with the analytic-vs-measured disagreement rate.
	run := func() []*eval.Result {
		var all []*eval.Result
		for _, s := range eval.PaperSuites() {
			rs, err := eval.RunSuiteCtx(context.Background(), s, eval.PaperModes...)
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, rs...)
		}
		return all
	}
	all := run()
	printArtifact("Table 5 — prediction accuracy (full suite)",
		eval.BuildTable5(all).Markdown())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// --- Figure 11: simulation vs measurement series --------------------------

func benchFigure11(b *testing.B, cfg eval.Config, key string) {
	r, err := eval.RunCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact(key, eval.BuildFigure11(r).Markdown())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11a(b *testing.B) {
	benchFigure11(b, eval.Config{Sys: topology.V100System(4), Axes: []int{2, 16},
		ReduceAxes: []int{1}, Algos: []cost.Algorithm{cost.Ring}},
		"Figure 11a — 4-node V100, Ring, axes [2 16], reduce axis 1")
}

func BenchmarkFigure11b(b *testing.B) {
	benchFigure11(b, eval.Config{Sys: topology.A100System(4), Axes: []int{4, 2, 8},
		ReduceAxes: []int{0, 2}, Algos: []cost.Algorithm{cost.Tree}},
		"Figure 11b — 4-node A100, Tree, axes [4 2 8], reduce {0,2}")
}

// --- RQ2: synthesis speed --------------------------------------------------

func BenchmarkSynthesisTwoLevel(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synth.Synthesize(h, synth.Options{})
	}
}

func BenchmarkSynthesisThreeAxis(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{16, 2, 2}, [][]int{{2, 8}, {2, 1}, {1, 2}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0, 2},
		hierarchy.Options{Collapse: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synth.Synthesize(h, synth.Options{})
	}
}

// BenchmarkSynthesize is the tracked synthesis row: one three-level and one
// four-level reduction hierarchy (root included) at universe sizes 8, 12 and
// 64, each taken from a placement of the benchmark shape that synthesizes it
// (superpod:2x4 [8 8], superpod:3x4 [12 8], superpod:16x32 [64 64]). The
// program set depends on the level count alone (93 and 1 635 programs); the
// time goes with K². Each row reports the explored and programs counters of
// one untimed run.
func BenchmarkSynthesize(b *testing.B) {
	rows := []struct {
		name string
		sys  *topology.System
		axes []int
		hier string
	}{
		{"3level-K8", topology.SuperPodSystem(2, 4), []int{8, 8}, "[2 4]"},
		{"4level-K8", topology.SuperPodSystem(2, 4), []int{8, 8}, "[2 2 2]"},
		{"3level-K12", topology.SuperPodSystem(3, 4), []int{12, 8}, "[3 4]"},
		{"4level-K12", topology.SuperPodSystem(3, 4), []int{12, 8}, "[3 2 2]"},
		{"3level-K64", topology.SuperPodSystem(16, 32), []int{64, 64}, "[8 8]"},
		{"4level-K64", topology.SuperPodSystem(16, 32), []int{64, 64}, "[2 4 8]"},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			var h *hierarchy.Hierarchy
			err := placement.Iterate(row.sys.Hierarchy(), row.axes, func(m *placement.Matrix) bool {
				if c := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{}); c.String() == row.hier {
					h = c
				}
				return h == nil
			})
			if err != nil || h == nil {
				b.Fatalf("no placement of %s %v reduces over %s (err %v)", row.sys.Name, row.axes, row.hier, err)
			}
			res := synth.Synthesize(h, synth.Options{}) // the counters, before the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				synth.Synthesize(h, synth.Options{})
			}
			b.ReportMetric(float64(res.Explored), "explored")
			b.ReportMetric(float64(len(res.Programs)), "programs")
		})
	}
}

// --- Ablations (design choices of §2.5/§3.4) -------------------------------

// BenchmarkAblationHierarchy compares synthesis cost across the four
// synthesis hierarchies on the running example — the justification for
// using (d): same expressible lowered programs, far smaller search space.
func BenchmarkAblationHierarchy(b *testing.B) {
	m := mustMatrix(b, []int{1, 2, 2, 4}, []int{4, 4},
		[][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	var body string
	for _, kind := range hierarchy.Kinds {
		h := hierarchy.MustBuild(kind, m, []int{1}, hierarchy.Options{})
		res := synth.Synthesize(h, synth.Options{MaxSize: 4})
		body += fmt.Sprintf("%-16s universe=%2d candidates=%3d programs=%3d explored=%6d time=%v\n",
			kind, h.K(), len(synth.Candidates(h)), len(res.Programs), res.Explored, res.Elapsed)
	}
	printArtifact("Ablation — synthesis hierarchy choice (Theorem 3.2 trade-off)", body)
	for _, kind := range hierarchy.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			h := hierarchy.MustBuild(kind, m, []int{1}, hierarchy.Options{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				synth.Synthesize(h, synth.Options{MaxSize: 4})
			}
		})
	}
}

// BenchmarkAblationCollapse measures the §2.5 same-hardware-level collapse.
func BenchmarkAblationCollapse(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{8, 2, 4}, [][]int{{2, 4}, {2, 1}, {1, 4}})
	var body string
	for _, collapse := range []bool{false, true} {
		h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0, 2},
			hierarchy.Options{Collapse: collapse})
		res := synth.Synthesize(h, synth.Options{})
		body += fmt.Sprintf("collapse=%-5v hierarchy=%v programs=%4d explored=%7d time=%v\n",
			collapse, h, len(res.Programs), res.Explored, res.Elapsed)
	}
	printArtifact("Ablation — same-level factor collapsing (§2.5)", body)
	for _, collapse := range []bool{false, true} {
		name := "off"
		if collapse {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0, 2},
				hierarchy.Options{Collapse: collapse})
			for i := 0; i < b.N; i++ {
				synth.Synthesize(h, synth.Options{})
			}
		})
	}
}

// BenchmarkAblationMemoization measures the context-memoization pruning.
func BenchmarkAblationMemoization(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	for _, memo := range []bool{true, false} {
		name := "on"
		if !memo {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				synth.Synthesize(h, synth.Options{NoMemo: !memo})
			}
		})
	}
}

// BenchmarkAblationSizeLimit sweeps the program-size limit (the paper notes
// size 5 suffices and larger limits rarely add programs).
func BenchmarkAblationSizeLimit(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	var body string
	for size := 1; size <= 6; size++ {
		res := synth.Synthesize(h, synth.Options{MaxSize: size})
		body += fmt.Sprintf("maxSize=%d programs=%4d explored=%7d time=%v\n",
			size, len(res.Programs), res.Explored, res.Elapsed)
	}
	printArtifact("Ablation — program size limit (§4.2 Result 2)", body)
	for _, size := range []int{3, 5} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				synth.Synthesize(h, synth.Options{MaxSize: size})
			}
		})
	}
}

// BenchmarkAblationFusion measures the emulator's XLA AllReduce-fusion
// peephole (§5's explanation for prediction misses).
func BenchmarkAblationFusion(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	program := dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
	}
	lp, err := lower.Lower(program, h)
	if err != nil {
		b.Fatal(err)
	}
	for _, fuse := range []bool{true, false} {
		name := "on"
		if !fuse {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			sim := &netsim.Simulator{Sys: topology.A100System(4), Algo: cost.Ring,
				Bytes: cost.PayloadBytes(4),
				Opts:  netsim.Options{DisableFusion: !fuse}}
			for i := 0; i < b.N; i++ {
				sim.Measure(lp)
			}
		})
	}
}

// --- Micro-benchmarks of the pipeline stages -------------------------------

func BenchmarkPlacementEnumerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Enumerate([]int{4, 16}, []int{16, 2, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLower measures the semantic path, lower.Lower = Annotate (the
// universe semantics) + Bind: what parsed programs, the AllReduce baseline
// and the serial reference pay per program. The planning engine does not
// run it — synthesized programs carry their shapes and each placement
// binds an instruction once (BenchmarkBind); BenchmarkPlanFreshBytesWarm
// measures that path end to end.
func BenchmarkLower(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	prog := synth.BaselineAllReduce()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lower.Lower(prog, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBind is the engine's whole per-instruction lowering cost: one
// instruction's leaf groups mapped to sorted physical groups (64 devices,
// 16 replicas of a 4-leaf universe).
func BenchmarkBind(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	in := synth.BaselineAllReduce()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lower.Bind(in, h)
	}
}

// BenchmarkPlanFreshBytesWarm is the daemon's slow path without the
// socket: one long-lived p2.Planner whose synthesis memo is warm, the 14
// non-measured load.Catalog() shapes, and a payload size never seen before
// on every iteration — so nothing above the synthesis memo can be reused
// and each op is 14 complete top-K plans (placements, hierarchies, memo
// hits, binding, scoring, strategy adoption).
func BenchmarkPlanFreshBytesWarm(b *testing.B) {
	type shape struct {
		sys *p2.System
		req p2.Request
	}
	var shapes []shape
	for _, pr := range load.Catalog() {
		if pr.Measure != "" {
			continue
		}
		sys, err := p2.ParseSystem(pr.System, pr.Nodes)
		if err != nil {
			b.Fatal(err)
		}
		req := p2.Request{Axes: pr.Axes, ReduceAxes: pr.Reduce, TopK: pr.TopK}
		switch pr.Algo {
		case "":
		case "auto":
			req.Algos = p2.ExtendedAlgorithms
		default:
			if req.Algo, err = cost.ParseAlgorithm(pr.Algo); err != nil {
				b.Fatal(err)
			}
		}
		shapes = append(shapes, shape{sys, req})
	}
	planAll := func(pl *p2.Planner, bytes float64, parallelism int) plan.Stats {
		var sum plan.Stats
		for _, s := range shapes {
			s.req.Bytes, s.req.Parallelism = bytes, parallelism
			res, err := pl.PlanCtx(context.Background(), s.sys, s.req)
			if err != nil {
				b.Fatal(err)
			}
			st := res.Stats
			sum.Placements += st.Placements
			sum.PrunedPlacements += st.PrunedPlacements
			sum.SynthRuns += st.SynthRuns
			sum.Candidates += st.Candidates
			sum.PrunedPrograms += st.PrunedPrograms
		}
		return sum
	}
	// The counters are one fresh-payload op's, summed over the shapes, on
	// a planner warmed the same way.
	counted := p2.NewPlanner(0)
	planAll(counted, 1<<20, 1)
	counters := planAll(counted, 1<<20+1, 1)
	pl := p2.NewPlanner(0)
	planAll(pl, 1<<20, 0) // warm the synthesis memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planAll(pl, float64(1<<20+1+i), 0)
	}
	reportCounters(b, counters)
}

// BenchmarkCostEstimate compares the reference Model.ProgramTime against
// the planner's reusable cost.Scorer: identical floats, and the scorer's
// dirty-entry scratch reset and inline link walk make the scoring path
// allocation-free (the "scorer" sub-benchmarks must report 0 allocs/op),
// also when every op scores a payload it has not seen, as the daemon's
// slow path does ("scorer-fresh-payload").
func BenchmarkCostEstimate(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		b.Fatal(err)
	}
	sys := topology.A100System(4)
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}
	b.Run("model", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model.ProgramTime(lp)
		}
	})
	b.Run("scorer", func(b *testing.B) {
		sc := cost.NewScorer(sys)
		sc.ProgramTime(model, lp) // warm the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.ProgramTime(model, lp)
		}
	})
	b.Run("scorer-fresh-payload", func(b *testing.B) {
		sc := cost.NewScorer(sys)
		fresh := *model
		sc.ProgramTime(&fresh, lp) // warm the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh.Bytes = model.Bytes + float64(i+1)
			sc.ProgramTime(&fresh, lp)
		}
	})
}

// BenchmarkRoute is the scorer's hottest leaf: one op routes every device
// of superpod:16x32 (4 096 devices, three levels) to its mirror device,
// n−1−d, into a reused buffer — mostly spine routes, which load all three
// levels' uplinks on both sides.
func BenchmarkRoute(b *testing.B) {
	sys := topology.SuperPodSystem(16, 32)
	n := sys.NumDevices()
	path := make([]int, 0, 2*sys.NumLevels())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for d := 0; d < n; d++ {
			path = sys.Route(d, n-1-d, path[:0])
		}
	}
}

// countEvents counts, with a Recorder on a copy of sim, the transfers one
// run of measure completes: the netsim rows' events counter, taken before
// the timed loop and reported after it (ResetTimer drops reported metrics).
func countEvents(sim netsim.Simulator, measure func(*netsim.Simulator)) float64 {
	events := 0
	sim.Recorder = func(netsim.Event) { events++ }
	measure(&sim)
	return float64(events)
}

func BenchmarkNetsimMeasure(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		b.Fatal(err)
	}
	sim := &netsim.Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}
	measure := func(s *netsim.Simulator) { s.Measure(lp) }
	events := countEvents(*sim, measure)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure(sim)
	}
	b.ReportMetric(events, "events")
}

// BenchmarkNetsimConcurrent is the two-lane case of the same event loop:
// the baseline AllReduce contending with an RS-AR-AG program.
func BenchmarkNetsimConcurrent(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	progs := make([]*lower.Program, 2)
	for i, p := range []dsl.Program{synth.BaselineAllReduce(), {
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
		{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllGather},
	}} {
		lp, err := lower.Lower(p, h)
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = lp
	}
	sim := &netsim.Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4)}
	measure := func(s *netsim.Simulator) { s.MeasureConcurrent(progs) }
	events := countEvents(*sim, measure)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure(sim)
	}
	b.ReportMetric(events, "events")
}

// BenchmarkPlanRankAll is measured-in-the-loop planning with every
// candidate emulated: superpod:2x2 [4 8] reducing axis 0 under
// MeasureRankAll, the shape that sets the bench's measured op_ms_p90.
// netsim dominates it.
func BenchmarkPlanRankAll(b *testing.B) {
	sys := topology.SuperPodSystem(2, 2)
	req := p2.Request{Axes: []int{4, 8}, ReduceAxes: []int{0}, Measure: p2.MeasureRankAll}
	counters := planCounters(b, sys, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p2.Plan(sys, req); err != nil {
			b.Fatal(err)
		}
	}
	reportCounters(b, counters)
}

// --- Planning engine: serial vs parallel memoized (DESIGN.md §6) -----------

// benchPlanEngine compares the serial reference path against the
// parallel memoized engine on one request. The parallel engine owes its
// advantage to two effects measured here separately: placement fan-out
// over GOMAXPROCS workers, and synthesis sharing between placements with
// equal hierarchy signatures (the serial path re-synthesizes per
// placement).
func benchPlanEngine(b *testing.B, sys *topology.System, axes, red []int) {
	req := p2.Request{Axes: axes, ReduceAxes: red}
	top8, top5 := req, req
	top8.TopK, top5.TopK = 8, 5
	full, pruned, pruned8 := planCounters(b, sys, req), planCounters(b, sys, top5), planCounters(b, sys, top8)
	printArtifact(fmt.Sprintf("Planning engine — %s axes %v", sys.Name, axes),
		fmt.Sprintf("placements=%d synthRuns=%d memoHits=%d candidates=%d workers<=%d\n"+
			"topk=5 pruning: prunedPlacements=%d prunedPrograms=%d boundTightenings=%d candidates=%d\n",
			full.Placements, full.SynthRuns, full.MemoHits,
			full.Candidates, runtime.GOMAXPROCS(0),
			pruned.PrunedPlacements, pruned.PrunedPrograms,
			pruned.BoundTightenings, pruned.Candidates))
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.PlanSerial(sys, req); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, full)
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.Plan(sys, req); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, full)
	})
	b.Run("parallel-top8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.Plan(sys, top8); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, pruned8)
	})
	// parallel-top5 is the acceptance configuration: bound pruning plus
	// early-exit scoring against the shared top-5 threshold.
	b.Run("parallel-top5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.Plan(sys, top5); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, pruned)
	})
}

// BenchmarkPlanSuperPod2x4 is the medium configuration: 64 devices,
// 6 placements.
func BenchmarkPlanSuperPod2x4(b *testing.B) {
	benchPlanEngine(b, topology.SuperPodSystem(2, 4), []int{8, 8}, []int{0})
}

// BenchmarkPlanSuperPod4x8 is the acceptance-scale configuration: 256
// devices, 10 placements, ~5.5k strategies. Parallel must beat serial
// here (EXPERIMENTS.md records a reference run).
func BenchmarkPlanSuperPod4x8(b *testing.B) {
	benchPlanEngine(b, topology.SuperPodSystem(4, 8), []int{16, 16}, []int{0})
}

// BenchmarkPlanSuperPod16x32 is the largest cold top-5 shape of the
// benchmark's cold_topk workload: 4 096 devices, [64 64] reducing axis 0,
// 18 placements on a fresh memo. Placement decoding, hierarchy
// construction, the bound and the route arithmetic of the scorer dominate
// it, not synthesis.
func BenchmarkPlanSuperPod16x32(b *testing.B) {
	sys := topology.SuperPodSystem(16, 32)
	req := p2.Request{Axes: []int{64, 64}, ReduceAxes: []int{0}, TopK: 5}
	counters := planCounters(b, sys, req)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p2.Plan(sys, req); err != nil {
			b.Fatal(err)
		}
	}
	reportCounters(b, counters)
}

// BenchmarkPlanSuperPod3x4 is the non-power-of-two configuration: a
// 3-pod cluster whose reduction groups (3, 6, 12 wide) run the residual
// halving-doubling schedule under the `-algo auto` search, tracking the
// residual-HD scoring path in BENCH_plan.json.
func BenchmarkPlanSuperPod3x4(b *testing.B) {
	sys := topology.SuperPodSystem(3, 4)
	req := p2.Request{Axes: []int{12, 8}, ReduceAxes: []int{0}, Algos: cost.ExtendedAlgorithms}
	top5 := req
	top5.TopK = 5
	full, pruned := planCounters(b, sys, req), planCounters(b, sys, top5)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.PlanSerial(sys, req); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, full)
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.Plan(sys, req); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, full)
	})
	b.Run("parallel-top5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.Plan(sys, top5); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, pruned)
	})
}

// BenchmarkPlanSuperPod3x4Degraded is BenchmarkPlanSuperPod3x4 on a system
// carrying link overrides: scoring leaves the uniform-link fast path and
// reads per-entity effective bandwidths/latencies, and the per-entity
// admissible bound drives the pruning. The delta against the pristine
// benchmark is the planning cost of heterogeneity.
func BenchmarkPlanSuperPod3x4Degraded(b *testing.B) {
	sys := withFaults(topology.SuperPodSystem(3, 4), "2:13:bw/10; 1:5:lat*4")
	req := p2.Request{Axes: []int{12, 8}, ReduceAxes: []int{0}, Algos: cost.ExtendedAlgorithms}
	top5 := req
	top5.TopK = 5
	full, pruned := planCounters(b, sys, req), planCounters(b, sys, top5)
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.Plan(sys, req); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, full)
	})
	b.Run("parallel-top5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.Plan(sys, top5); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, pruned)
	})
}

// BenchmarkPlanJointEngine compares serial and parallel joint planning
// (two reductions à la Megatron data × tensor parallelism).
func BenchmarkPlanJointEngine(b *testing.B) {
	sys := topology.SuperPodSystem(2, 4)
	axes := []int{8, 8}
	reductions := []p2.Reduction{
		{ReduceAxes: []int{0}, Bytes: 1 << 30},
		{ReduceAxes: []int{1}, Bytes: 1 << 26, Count: 48},
	}
	jp, err := p2.PlanJointCtx(context.Background(), sys, axes, reductions, p2.JointOptions{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.PlanJointSerial(sys, axes, reductions); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, jp.Stats)
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p2.PlanJoint(sys, axes, reductions); err != nil {
				b.Fatal(err)
			}
		}
		reportCounters(b, jp.Stats)
	})
}

// --- Extensions beyond the paper -------------------------------------------

// BenchmarkExtensionAlgorithms prints the three-algorithm comparison for a
// mixed local/remote AllReduce.
func BenchmarkExtensionAlgorithms(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		b.Fatal(err)
	}
	var body string
	for _, algo := range cost.ExtendedAlgorithms {
		model := &cost.Model{Sys: topology.A100System(4), Algo: algo, Bytes: cost.PayloadBytes(4)}
		sim := &netsim.Simulator{Sys: topology.A100System(4), Algo: algo, Bytes: cost.PayloadBytes(4)}
		body += fmt.Sprintf("%-16s predicted=%.3fs emulated=%.3fs\n",
			algo, model.ProgramTime(lp), sim.Measure(lp))
	}
	printArtifact("Extension — AllReduce algorithm comparison on [[2 2] [2 8]]", body)
	for _, algo := range cost.ExtendedAlgorithms {
		b.Run(algo.String(), func(b *testing.B) {
			sim := &netsim.Simulator{Sys: topology.A100System(4), Algo: algo, Bytes: cost.PayloadBytes(4)}
			for i := 0; i < b.N; i++ {
				sim.Measure(lp)
			}
		})
	}
}

// BenchmarkTraceRecording measures the emulator overhead of transfer
// recording.
func BenchmarkTraceRecording(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		b.Fatal(err)
	}
	var events []netsim.Event
	sim := &netsim.Simulator{Sys: topology.A100System(4), Algo: cost.Ring, Bytes: cost.PayloadBytes(4),
		Recorder: func(ev netsim.Event) { events = append(events, ev) }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		events = events[:0]
		sim.Measure(lp)
	}
	if len(events) == 0 {
		b.Fatal("no events recorded")
	}
}

// BenchmarkVerifyConcrete measures the concrete-data executor.
func BenchmarkVerifyConcrete(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := verify.Check(lp, m, []int{0}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXLAEmit measures the HLO renderer.
func BenchmarkXLAEmit(b *testing.B) {
	m := mustMatrix(b, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xla.Emit(lp, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
