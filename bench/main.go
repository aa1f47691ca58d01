// Command bench is the repo's one benchmark: five seeded workloads over the
// P² planner (library) and the planning daemon, nine end-to-end metrics a
// user would see, and a traced run that times each pipeline layer from
// outside. See README.md beside this file and BENCHMARK.json at the repo
// root.
//
//	go run ./bench -seed 1                      every workload, every end-to-end metric
//	go run ./bench -seed 1 -trace               the per-layer metrics and span files
//	go run ./bench -workload cold_topk -seed 1 -seconds 10 -trace 0
//	                                            one workload; last line is the result as JSON
//	go run ./bench -selfcheck                   run everything twice, compare within the bounds
//	go run ./bench -write-golden                regenerate bench/testdata/golden.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	smoke       bool
	selfcheck   bool
	writeGolden bool
	inject      string
	out         string
}

// joinTraceValue lets "-trace 1" (the driver's spelling) parse like
// "-trace=1", while a bare "-trace" still means on.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) &&
			(args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, args[i]+"="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print the result as one JSON line (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: shuffles op order and seeds the request streams")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of each workload's timed phase")
	fs.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics and span files instead of end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "one round of the light shapes, for tests")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice and fail unless the two sets agree within each metric's bound")
	fs.BoolVar(&o.writeGolden, "write-golden", false, "regenerate "+goldenFile+" from this commit (run from the repo root)")
	fs.StringVar(&o.inject, "inject", "", "negative control: golden (corrupt a golden entry) or slow:WORKLOAD (stretch its ops by half; with -selfcheck, in the second set only)")
	fs.StringVar(&o.out, "out", "bench/out", "directory for the traced run's span files")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var err error
	switch {
	case o.writeGolden:
		err = writeGoldens(stdout)
	case o.selfcheck:
		err = selfcheck(o, stdout)
	case o.workload != "":
		err = runOne(o, stdout)
	default:
		err = runAll(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func (o options) config(w *workload, secondSet bool) config {
	cfg := config{seed: o.seed, seconds: o.seconds, smoke: o.smoke}
	if o.smoke {
		cfg.seconds = 0
	}
	if o.trace {
		cfg.traceDir = o.out
	}
	switch {
	case o.inject == "golden":
		cfg.inject = "golden"
	case o.inject == "slow:"+w.name && (secondSet || !o.selfcheck):
		cfg.inject = "slow"
	}
	return cfg
}

func (o options) declared() []metricDef {
	if o.trace {
		return perLayer
	}
	return endToEnd
}

// printReport prints every metric by name with its unit, then any
// failures.
func printReport(w io.Writer, rep *report, defs []metricDef) {
	fmt.Fprintf(w, "== %s: %d ops attempted, %d failed", rep.workload, rep.attempted, rep.failed)
	if rep.machine > 0 && rep.machine != 1 { // 1 is a run that was not calibrated
		fmt.Fprintf(w, "; timings divided by machine factor %.3f", rep.machine)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.name, rep.metrics[d.name], d.unit)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

// runOne is the driver's entry: one workload, the result as the last line.
func runOne(o options, stdout io.Writer) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rep, err := runWorkload(w, o.config(w, false))
	if err != nil {
		return err
	}
	defs := o.declared()
	printReport(stdout, rep, defs)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{rep.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed a check", w.name, rep.failed, rep.attempted)
	}
	return nil
}

// runSet runs all five workloads one after the other in this process.
func runSet(o options, secondSet bool, stdout io.Writer) ([]*report, error) {
	var reps []*report
	failed := 0
	for _, w := range workloads() {
		rep, err := runWorkload(w, o.config(w, secondSet))
		if err != nil {
			return nil, err
		}
		printReport(stdout, rep, o.declared())
		reps = append(reps, rep)
		failed += rep.failed
	}
	if failed > 0 {
		return reps, fmt.Errorf("%d ops failed a correctness check", failed)
	}
	return reps, nil
}

func runAll(o options, stdout io.Writer) error {
	_, err := runSet(o, false, stdout)
	return err
}

// selfcheck is the repeatability evidence: two sets of runs of the same
// code must agree within the bounds the benchmark gates changes with.
func selfcheck(o options, stdout io.Writer) error {
	o.trace = false
	a, err := runSet(o, false, stdout)
	if err != nil {
		return err
	}
	b, err := runSet(o, true, stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%-12s %-30s %14s %14s %9s %9s\n", "workload", "metric", "first", "second", "apart", "bound")
	var out []string
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].metrics[d.name], b[i].metrics[d.name]
			apart := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if apart > d.bound {
				verdict = "  OUT OF BOUND"
				out = append(out, a[i].workload+"/"+d.name)
			}
			fmt.Fprintf(stdout, "%-12s %-30s %14.6g %14.6g %8.2f%% %8.2f%%%s\n",
				a[i].workload, d.name, x, y, 100*apart, 100*d.bound, verdict)
		}
	}
	if len(out) > 0 {
		return fmt.Errorf("two sets of runs disagree beyond the bound on %s", strings.Join(out, ", "))
	}
	return nil
}

// writeGoldens plans every library shape once and records the rankings.
func writeGoldens(stdout io.Writer) error {
	all := map[string]map[string]golden{}
	for _, w := range workloads() {
		if w.serve {
			continue
		}
		e := &libEnv{w: w, shapes: w.shapes}
		var err error
		if e.sys, e.reqs, err = resolveAll(e.shapes); err != nil {
			return err
		}
		all[w.name] = map[string]golden{}
		for si := range e.shapes {
			res, err := e.run(si)
			if err != nil {
				return fmt.Errorf("%s: %w", e.shapes[si].name(), err)
			}
			g := goldenOf(res.ranking().entries)
			all[w.name][e.shapes[si].name()] = g
			fmt.Fprintf(stdout, "%-10s %-44s %6d strategies\n", w.name, e.shapes[si].name(), g.Count)
		}
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile, append(data, '\n'), 0o644)
}
