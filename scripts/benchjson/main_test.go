package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goTest is `go test -bench -benchmem -count 3` output for two rows.
const goTest = `commit: abc1234
goos: linux
goarch: amd64
pkg: p2
cpu: Test CPU @ 1.00GHz
BenchmarkLower-2          	  100000	     12000 ns/op	    2906 B/op	      41 allocs/op
BenchmarkLower-2          	  100000	     10000 ns/op	    2906 B/op	      41 allocs/op
BenchmarkLower-2          	  100000	     15000 ns/op	    2910 B/op	      43 allocs/op
BenchmarkCostEstimate/scorer-2	  500000	      2500 ns/op	       0 B/op	       0 allocs/op
BenchmarkCostEstimate/scorer-2	  500000	      2400 ns/op	       0 B/op	       0 allocs/op
BenchmarkCostEstimate/scorer-2	  500000	      2600 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	p2	12.345s
`

// driverRun is one run's report as `bench --workload W --trace 0` prints it.
func driverRun(workload string, p50 float64, correct bool, failed int) string {
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": 100, "failed": failed,
		"metrics": map[string]any{"op_ms_p50": map[string]any{"value": p50, "unit": "ms"}},
	})
	return "== " + workload + ": 100 ops attempted, 0 failed; timings divided by machine factor 1.010\n" +
		"op_ms_p50                                 1 ms\n" + string(line) + "\n"
}

func writeRecord(t *testing.T, in, out string) (*run, error) {
	t.Helper()
	if err := write(strings.NewReader(in), out); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct{ Current *run }
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("written record does not parse: %v", err)
	}
	return rec.Current, nil
}

func TestRowsAndWorkloads(t *testing.T) {
	in := goTest
	for _, p50 := range []float64{5, 1, 4, 2, 3, 8, 6, 7, 9, 10} {
		in += driverRun("cold_topk", p50, true, 0)
	}
	cur, err := writeRecord(t, in, filepath.Join(t.TempDir(), "BENCH_plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	if cur.Commit != "abc1234" || cur.CPU != "Test CPU @ 1.00GHz" || cur.GOMAXPROCS < 1 || cur.Go == "" {
		t.Errorf("machine fields: commit %q cpu %q gomaxprocs %d go %q", cur.Commit, cur.CPU, cur.GOMAXPROCS, cur.Go)
	}
	lower := cur.Benchmarks["BenchmarkLower"]
	if ns := lower.NsOp; ns.N != 3 || ns.Median != 12000 || ns.Min != 10000 || ns.Max != 15000 {
		t.Errorf("BenchmarkLower ns/op = %+v, want n 3, median 12000, min 10000, max 15000", ns)
	}
	if lower.BOp != 2906 || lower.AllocsOp != 41 {
		t.Errorf("BenchmarkLower B/op, allocs/op = %g, %g, want medians 2906, 41", lower.BOp, lower.AllocsOp)
	}
	if ns := cur.Benchmarks["BenchmarkCostEstimate/scorer"].NsOp; ns.Median != 2500 || ns.Min != 2400 || ns.Max != 2600 {
		t.Errorf("BenchmarkCostEstimate/scorer ns/op = %+v", ns)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if s := cur.Workloads["cold_topk"]["op_ms_p50"]; s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("cold_topk op_ms_p50 = %+v, want n 10, q1 2.75, median 5.5, q3 8.25", s)
	}
}

// counted is `go test -bench` output for a row reporting counters.
func counted(ns, candidates, synthRuns int) string {
	return fmt.Sprintf("BenchmarkPlanX/parallel-2 \t 10\t %d ns/op\t %d candidates\t 6.000 placements\t %d.000 synth-runs\t 1824551 B/op\t 9623 allocs/op\n",
		ns, candidates, synthRuns)
}

func TestCountersRecordedExactly(t *testing.T) {
	in := goTest + counted(500, 2010, 4) + counted(700, 2010, 4) + driverRun("measured", 1, true, 0)
	cur, err := writeRecord(t, in, filepath.Join(t.TempDir(), "BENCH_plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := cur.Benchmarks["BenchmarkPlanX/parallel"]
	want := map[string]float64{"candidates": 2010, "placements": 6, "synth-runs": 4}
	if !maps.Equal(r.Counters, want) || r.NsOp.Median != 600 || r.BOp != 1824551 || r.AllocsOp != 9623 {
		t.Errorf("row = %+v, want counters %v, ns/op median 600, 1824551 B/op, 9623 allocs/op", r, want)
	}
	if c := cur.Benchmarks["BenchmarkLower"].Counters; c != nil {
		t.Errorf("BenchmarkLower counters = %v, want none", c)
	}
	varying := goTest + counted(500, 2010, 4) + counted(500, 2010, 5) + driverRun("measured", 1, true, 0)
	if _, err := writeRecord(t, varying, filepath.Join(t.TempDir(), "BENCH_plan.json")); err == nil {
		t.Error("a counter varying across samples was recorded, want a refusal")
	}
}

func TestCheckCounters(t *testing.T) {
	record := filepath.Join(t.TempDir(), "BENCH_plan.json")
	if _, err := writeRecord(t, goTest+counted(500, 2010, 4)+driverRun("measured", 1, true, 0), record); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		in string
		ok bool
	}{
		"same counters, other timings": {goTest + counted(9000, 2010, 4), true},
		"an extra synthesis run":       {goTest + counted(500, 2010, 5), false},
		"counted row not run":          {goTest, false},
		"counted row not recorded":     {goTest + strings.ReplaceAll(counted(500, 2010, 4), "PlanX", "PlanY") + counted(500, 2010, 4), false},
		"no rows":                      {"PASS\n", false},
	} {
		var out bytes.Buffer
		if err := check(strings.NewReader(tc.in), record, &out); (err == nil) != tc.ok {
			t.Errorf("%s: check error %v, want ok %t\n%s", name, err, tc.ok, out.String())
		}
	}
}

func TestRefusesAndWritesNothing(t *testing.T) {
	ok := driverRun("serve_hot", 1, true, 0)
	for name, in := range map[string]string{
		"incorrect run":    goTest + ok + driverRun("serve_hot", 1, false, 0),
		"failed ops":       goTest + ok + driverRun("serve_hot", 1, true, 2),
		"no benchmark row": ok,
		"no driver result": goTest,
	} {
		out := filepath.Join(t.TempDir(), "BENCH_plan.json")
		if _, err := writeRecord(t, in, out); err == nil {
			t.Errorf("%s: write succeeded, want an error", name)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: output file exists after a refused write", name)
		}
	}
}

// TestKeepsBaseline rewrites a copy of the committed record: its
// baseline must come out byte for byte.
func TestKeepsBaseline(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_plan.json")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "BENCH_plan.json")
	if err := os.WriteFile(out, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := writeRecord(t, goTest+driverRun("measured", 1, true, 0), out); err != nil {
		t.Fatal(err)
	}
	rewritten, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var before, after struct{ Baseline json.RawMessage }
	if err := json.Unmarshal(committed, &before); err != nil || before.Baseline == nil {
		t.Fatalf("committed record has no baseline (%v)", err)
	}
	if err := json.Unmarshal(rewritten, &after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Baseline, after.Baseline) {
		t.Error("baseline changed on rewrite")
	}
}

// benchManifest is what the tests read of BENCHMARK.json.
type benchManifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
}

func readManifest(t *testing.T) benchManifest {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m benchManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCommittedRecord holds BENCH_plan.json's current section to what
// scripts/bench.sh writes: every BENCHMARK.json workload with every
// end-to-end metric, ten samples of everything, and the counters of every
// tracked planning, synthesis and emulator row.
func TestCommittedRecord(t *testing.T) {
	manifest := readManifest(t)
	data, err := os.ReadFile("../../BENCH_plan.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct{ Current *run }
	if err := json.Unmarshal(data, &rec); err != nil || rec.Current == nil {
		t.Fatalf("BENCH_plan.json current does not parse as the writer's record (%v)", err)
	}
	count := func(what string, s stat) {
		if s.N != 10 {
			t.Errorf("%s has %d samples, want the 10 scripts/bench.sh takes", what, s.N)
		}
	}
	if len(rec.Current.Benchmarks) == 0 {
		t.Error("no benchmark rows")
	}
	for name, r := range rec.Current.Benchmarks {
		count(name, r.NsOp)
		if (strings.HasPrefix(name, "BenchmarkPlan") || strings.HasPrefix(name, "BenchmarkNetsim") || strings.HasPrefix(name, "BenchmarkSynthesize/")) && r.Counters == nil {
			t.Errorf("%s has no counters for CHECK=1 scripts/bench.sh to hold", name)
		}
	}
	for _, w := range manifest.Workloads {
		for _, m := range manifest.EndToEnd {
			s, ok := rec.Current.Workloads[w.Name][m.Name]
			if !ok {
				t.Errorf("no %s/%s", w.Name, m.Name)
				continue
			}
			count(w.Name+"/"+m.Name, s)
		}
	}
}

// fullRun is a driver report carrying every end-to-end metric BENCHMARK.json
// declares, each 1 unless set gives it a value.
func fullRun(t *testing.T, workload string, correct bool, set map[string]float64) string {
	t.Helper()
	metrics := map[string]any{}
	for _, m := range readManifest(t).EndToEnd {
		v, ok := set[m.Name]
		if !ok {
			v = 1
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": "x"}
	}
	line, _ := json.Marshal(map[string]any{"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics})
	return "== " + workload + ": 10 ops attempted, 0 failed\n" + string(line) + "\n"
}

// runPair writes the two streams to files and runs -pair on them with REV
// abc1234.
func runPair(t *testing.T, old, tree string) (string, error) {
	t.Helper()
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.out"), filepath.Join(dir, "new.out")
	if err := os.WriteFile(oldPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(tree), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := pair("abc1234", oldPath, newPath, "../../BENCHMARK.json", &out)
	return out.String(), err
}

func TestPair(t *testing.T) {
	// seed is one pair's side: a counted row and a measured run.
	seed := func(ns, candidates int, correct bool, set map[string]float64) string {
		return counted(ns, candidates, 4) + fullRun(t, "measured", correct, set)
	}
	same := seed(500, 2010, true, nil) + seed(600, 2010, true, nil)
	only := func(key, side string) string { return fmt.Sprintf("%-44s %s only\n", key, side) }
	for name, tc := range map[string]struct {
		old, tree string
		err       string   // "" when -pair must succeed
		lines     []string // substrings the table must hold
	}{
		"identical streams": {old: same, tree: same, lines: []string{
			"BenchmarkPlanX/parallel candidates", "det    -\n", "measured best_pred_ms_geomean", "0/2   no\n"}},
		"one counter differs in one pair": {old: same, tree: seed(500, 2010, true, nil) + seed(600, 2011, true, nil),
			err: "1 deterministic mismatch", lines: []string{"MISMATCH BenchmarkPlanX/parallel candidates seed 2: abc1234 2010, tree 2011\n"}},
		"model output differs": {old: same, tree: seed(500, 2010, true, map[string]float64{"best_pred_ms_geomean": 2}) + seed(600, 2010, true, nil),
			err: "1 deterministic mismatch", lines: []string{"MISMATCH measured best_pred_ms_geomean seed 1: abc1234 1, tree 2\n"}},
		"incorrect driver result": {old: same, tree: seed(500, 2010, true, nil) + seed(600, 2010, false, nil),
			err: `tree: refusing driver result of workload "measured" seed 2`},
		"metric missing": {old: seed(500, 2010, true, nil) + strings.Replace(seed(600, 2010, true, nil), `"op_ms_p90":{"unit":"x","value":1},`, "", 1), tree: same,
			err: `abc1234: refusing driver result of workload "measured" seed 2: no op_ms_p90`},
		"tree faster": {old: same, tree: seed(400, 2010, true, map[string]float64{"op_ms_p50": 0.5, "ops_per_s": 2}) + seed(500, 2010, true, map[string]float64{"op_ms_p50": 0.5, "ops_per_s": 2}),
			lines: []string{"BenchmarkPlanX/parallel ns/op", "0.8182   2/2   no\n", "0.5000   2/2  yes\n", "2.0000   2/2  yes\n"}},
		"row on REV only": {old: same + strings.ReplaceAll(counted(500, 2010, 4), "PlanX", "PlanY"), tree: same,
			lines: []string{only("BenchmarkPlanY/parallel ns/op", "abc1234"), only("BenchmarkPlanY/parallel candidates", "abc1234")}},
		"row on tree only": {old: same, tree: same + strings.ReplaceAll(counted(500, 2010, 4), "PlanX", "PlanY"),
			lines: []string{only("BenchmarkPlanY/parallel ns/op", "tree"), only("BenchmarkPlanY/parallel allocs/op", "tree")}},
	} {
		out, err := runPair(t, tc.old, tc.tree)
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: error %v, want %q\n%s", name, err, tc.err, out)
		}
		for _, l := range tc.lines {
			if !strings.Contains(out, l) {
				t.Errorf("%s: table lacks %q\n%s", name, l, out)
			}
		}
		if tc.err == "" && strings.Contains(out, "MISMATCH") {
			t.Errorf("%s: table has a mismatch\n%s", name, out)
		}
	}
}

// TestPairGolden runs -pair on streams recorded from real runs — the
// default rows at -benchtime 1x and the five --smoke workloads, seeds 1 and
// 2, REV 9b33a9e against a tree with the same engine — and compares its
// table with testdata/pair.golden, which the awk program benchpair.sh ran
// before -pair existed printed from the same runs. The same streams go
// through the record writer's summary.
func TestPairGolden(t *testing.T) {
	var out bytes.Buffer
	if err := pair("9b33a9e", "testdata/pair.old", "testdata/pair.new", "../../BENCHMARK.json", &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/pair.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-pair table differs from testdata/pair.golden:\n%s", out.String())
	}
	f, err := os.Open("testdata/pair.old")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cur, err := summary(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Benchmarks) != 3 || len(cur.Workloads) != 5 || cur.CPU == "" {
		t.Errorf("recorded stream summarizes to %d rows, %d workloads, cpu %q; want 3, 5 and the header's",
			len(cur.Benchmarks), len(cur.Workloads), cur.CPU)
	}
	for name, r := range cur.Benchmarks {
		if r.NsOp.N != 2 || r.Counters == nil {
			t.Errorf("%s: %d ns/op samples, counters %v; want 2 and the row's counters", name, r.NsOp.N, r.Counters)
		}
	}
}
