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

// TestCommittedRecord holds BENCH_plan.json's current section to what
// scripts/bench.sh writes: every BENCHMARK.json workload with every
// end-to-end metric, ten samples of everything, and the counters of every
// tracked planning, synthesis and emulator row.
func TestCommittedRecord(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile("../../BENCH_plan.json"); err != nil {
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
