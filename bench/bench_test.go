package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func defsOf(ms []manifestMetric) []metricDef {
	out := make([]metricDef, len(ms))
	for i, m := range ms {
		out[i] = metricDef{m.Name, m.Unit, m.Better, m.Bound}
	}
	return out
}

// TestManifestMatchesCode holds BENCHMARK.json and the benchmark's own
// tables together: workloads, metric names, units, directions and bounds.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(defsOf(m.EndToEnd), endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the endToEnd table:\n json %v\n code %v", defsOf(m.EndToEnd), endToEnd)
	}
	if !reflect.DeepEqual(defsOf(m.PerLayer), perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the perLayer table")
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// printed parses the human-readable report: workload → metric → times
// printed.
func printed(t *testing.T, out string) map[string]map[string]int {
	t.Helper()
	res := map[string]map[string]int{}
	var cur map[string]int
	for _, line := range strings.Split(out, "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "== "):
			cur = map[string]int{}
			res[strings.TrimSuffix(f[1], ":")] = cur
		case strings.HasPrefix(line, "FAIL "):
			t.Errorf("benchmark reported: %s", line)
		case len(f) == 3 && cur != nil:
			cur[f[0]]++
		}
	}
	return res
}

// smoke runs every workload once at smoke size and checks that exactly the
// declared metrics are printed, once each, for every workload.
func smoke(t *testing.T, defs []metricDef, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-smoke", "-seed", "1"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	got := printed(t, stdout.String())
	for _, w := range workloads() {
		names := got[w.name]
		if names == nil {
			t.Errorf("%s: no report printed", w.name)
			continue
		}
		for _, d := range defs {
			if names[d.name] != 1 {
				t.Errorf("%s: %s printed %d times, want once", w.name, d.name, names[d.name])
			}
			delete(names, d.name)
		}
		for n := range names {
			t.Errorf("%s: %s is printed but not declared", w.name, n)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) { smoke(t, endToEnd) }

func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	smoke(t, perLayer, "-trace", "-out", dir)
	for _, w := range workloads() {
		if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("span file: %v", err)
		}
	}
}

// TestDriverLine checks the one-workload form the driver uses: its
// spelling of the flags, and the result object on the last line.
func TestDriverLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "measured", "--seed", "7", "--seconds", "1", "--trace", "0", "-smoke"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
		t.Errorf("result %s: want correct, attempted >= 1, failed 0", lines[len(lines)-1])
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit || *m.Value == 0 {
			t.Errorf("metric %s: got %+v, want a non-zero value in %s", d.name, m, d.unit)
		}
	}
}

// TestGoldens checks that every library shape has a golden and that a
// top-K golden is the prefix of the same shape's full golden.
func TestGoldens(t *testing.T) {
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if w.serve {
			continue
		}
		for _, s := range w.shapes {
			if g, ok := goldens[w.name][s.name()]; !ok || g.Count == 0 || len(g.Head) == 0 {
				t.Errorf("%s/%s: no golden", w.name, s.name())
			}
		}
	}
	pairs, err := topKPrefixOfFull(goldens)
	if err != nil {
		t.Error(err)
	}
	if pairs < 4 {
		t.Errorf("only %d shapes have both a top-K and a full golden, want the 4 cold_topk shares with cold_full", pairs)
	}
}

// TestInjectedGoldenFails is the negative control for the correctness
// chain: with one golden entry corrupted the command must fail.
func TestInjectedGoldenFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "cold_full", "-smoke", "-inject", "golden"}, &stdout, &stderr)
	if code == 0 || !strings.Contains(stdout.String(), `"correct":false`) {
		t.Errorf("exit code %d, want failure with correct=false\n%s", code, stdout.String())
	}
}

// TestOpListsFromSeed: the same seed gives the same ops byte for byte; two
// seeds give the same ops in another order — except serve_hot, whose
// stream is the load harness's own and differs in content too.
func TestOpListsFromSeed(t *testing.T) {
	rounds := func(seed int64, n int) [][]int {
		l := newOpList(seed, n)
		return [][]int{l.round(), l.round(), l.round()}
	}
	for _, w := range workloads() {
		n := len(w.shapes)
		a, again, b := rounds(1, n), rounds(1, n), rounds(2, n)
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: two generations from seed 1 differ", w.name)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 give the same order", w.name)
		}
		for r := range b {
			perm := append([]int(nil), b[r]...)
			sort.Ints(perm)
			for i, v := range perm {
				if v != i {
					t.Fatalf("%s: round %d of seed 2 is not a permutation of the shapes: %v", w.name, r, b[r])
				}
			}
		}
		if !w.serve {
			continue
		}
		stream := func(seed int64) []string {
			e := &serveEnv{w: w, shapes: w.shapes}
			if err := e.buildStream(config{seed: seed}); err != nil {
				t.Fatal(err)
			}
			return e.bodies
		}
		s1, s1again, s2 := stream(1), stream(1), stream(2)
		if !reflect.DeepEqual(s1, s1again) {
			t.Errorf("%s: two streams from seed 1 differ", w.name)
		}
		if reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
		if !w.hot {
			sort.Strings(s1)
			sort.Strings(s2)
			if !reflect.DeepEqual(s1, s2) {
				t.Errorf("%s: seeds 1 and 2 do not send the same requests", w.name)
			}
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--seed 3 --trace 1", "--seed 3 --trace=1"},
		{"--trace 0 --seed 3", "--trace=0 --seed 3"},
		{"-trace -seed 3", "-trace -seed 3"},
		{"-seed 3 -trace", "-seed 3 -trace"},
	} {
		if got := strings.Join(joinTraceValue(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("joinTraceValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
