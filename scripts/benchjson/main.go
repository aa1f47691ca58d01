// Command benchjson is the repo's one parser of benchmark output as
// scripts/bench.sh and scripts/benchpair.sh collect it: `go test -bench
// -benchmem` rows under a "cpu:" header, the benchmark driver's reports (a
// "== W: …" header and, last, a JSON result line, refused unless correct
// with no failed ops) and a "commit: …" line. By default it writes the
// record BENCH_plan.json from stdin: each row's ns/op median, quartiles,
// min and max, its median B/op and allocs/op and the exact value of every
// other unit (work counters, refused if they vary), and each workload
// metric's statistics. The "baseline" is kept byte for byte, and input
// without rows or driver results is refused. -check FILE fails when the
// rows' counters on stdin differ from FILE's "current" or a counted row is
// on one side only, printing timings as advice. -pair REV OLD NEW prints
// benchpair's table of two streams (EXPERIMENTS.md "Paired runs").
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// stat summarizes N samples. Quartiles use the exclusive method of
// Python's statistics.quantiles, as bench/baseline.json does.
type stat struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

type row struct {
	NsOp     stat               `json:"ns_op"`
	BOp      float64            `json:"b_op"`
	AllocsOp float64            `json:"allocs_op"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

type run struct {
	Commit     string                     `json:"commit"`
	Date       string                     `json:"date"`
	Go         string                     `json:"go"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	CPU        string                     `json:"cpu"`
	Benchmarks map[string]row             `json:"benchmarks"`
	Workloads  map[string]map[string]stat `json:"workloads"`
}

type record struct {
	Baseline json.RawMessage `json:"baseline,omitempty"`
	Current  *run            `json:"current"`
}

// benchLine is one `go test -bench -benchmem` result: the row name without
// its GOMAXPROCS suffix, the iteration count, and the (value, unit) pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+((?:\s+[0-9.e+-]+ \S+)+)\s*$`)

// timed are the units every row reports; any other unit is a counter.
var timed = []string{"ns/op", "B/op", "allocs/op"}

func main() {
	out := flag.String("o", "BENCH_plan.json", "output file")
	checkAgainst := flag.String("check", "", "compare the rows' counters on stdin to this record instead of writing one")
	rev := flag.String("pair", "", "print the table of this revision's stream against the tree's, the two file arguments")
	flag.Parse()
	var err error
	switch {
	case *checkAgainst != "":
		err = check(os.Stdin, *checkAgainst, os.Stdout)
	case *rev != "" && flag.NArg() != 2:
		err = fmt.Errorf("-pair %s takes two files, its stream and the tree's", *rev)
	case *rev != "":
		err = pair(*rev, flag.Arg(0), flag.Arg(1), "BENCHMARK.json", os.Stdout)
	default:
		err = write(os.Stdin, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// series names one sampled quantity: a `go test` row's unit, or (run) a
// workload's driver metric.
type series struct {
	run        bool
	name, unit string
}

func (k series) String() string { return k.name + " " + k.unit }

// stream is one read of benchmark output: every series' samples in input
// order, the series in order of first appearance, and the header lines.
type stream struct {
	cpu, commit string
	order       []series
	xs          map[series][]float64
}

// read parses benchmark output, refusing a driver result that is not correct,
// has failed ops or lacks a metric need names; a result's seed is its
// position among its workload's.
func read(in io.Reader, need []string) (*stream, error) {
	st := &stream{xs: map[series][]float64{}}
	add := func(k series, v float64) {
		if st.xs[k] == nil {
			st.order = append(st.order, k)
		}
		st.xs[k] = append(st.xs[k], v)
	}
	workload := ""
	seeds := map[string]int{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if name, f := parseRow(line); f != nil {
			for i := 0; i < len(f); i += 2 {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				add(series{false, name, f[i+1]}, v)
			}
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			st.cpu = v
		} else if v, ok := strings.CutPrefix(line, "commit: "); ok {
			st.commit = v
		} else if v, ok := strings.CutPrefix(line, "== "); ok {
			workload, _, _ = strings.Cut(v, ":")
		} else if strings.HasPrefix(line, "{") {
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s: parsing driver result: %w", workload, err)
			}
			seeds[workload]++
			if !res.Correct || res.Failed > 0 || workload == "" {
				return nil, fmt.Errorf("refusing driver result of workload %q seed %d (correct %t, %d of %d ops failed)",
					workload, seeds[workload], res.Correct, res.Failed, res.Attempted)
			}
			for _, name := range need {
				if _, ok := res.Metrics[name]; !ok {
					return nil, fmt.Errorf("refusing driver result of workload %q seed %d: no %s", workload, seeds[workload], name)
				}
			}
			for _, name := range slices.Sorted(maps.Keys(res.Metrics)) { // the driver's JSON order
				add(series{true, workload, name}, res.Metrics[name].Value)
			}
		}
	}
	return st, sc.Err()
}

// parseRow returns a benchmark result line's row name and its value, unit,
// value, unit, ... fields, or no fields for any other line and for a row
// missing one of the timed units.
func parseRow(line string) (string, []string) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return "", nil
	}
	f := strings.Fields(m[2])
	for _, u := range timed {
		if !slices.Contains(f, u) {
			return "", nil
		}
	}
	return m[1], f
}

// summary reads in and reduces it to a record's current section without
// the machine fields (see the package doc).
func summary(in io.Reader) (*run, error) {
	st, err := read(in, nil)
	if err != nil {
		return nil, err
	}
	cur := &run{Commit: st.commit, CPU: st.cpu, Benchmarks: map[string]row{}, Workloads: map[string]map[string]stat{}}
	for _, k := range st.order {
		xs := st.xs[k]
		if k.run {
			if cur.Workloads[k.name] == nil {
				cur.Workloads[k.name] = map[string]stat{}
			}
			cur.Workloads[k.name][k.unit] = summarize(xs)
			continue
		}
		r := cur.Benchmarks[k.name]
		switch k.unit {
		case "ns/op":
			r.NsOp = summarize(xs)
		case "B/op":
			r.BOp = summarize(xs).Median
		case "allocs/op":
			r.AllocsOp = summarize(xs).Median
		default:
			if slices.Min(xs) != slices.Max(xs) {
				return nil, fmt.Errorf("%s: counter %s varies across samples: %v", k.name, k.unit, xs)
			}
			if r.Counters == nil {
				r.Counters = map[string]float64{}
			}
			r.Counters[k.unit] = xs[0]
		}
		cur.Benchmarks[k.name] = r
	}
	return cur, nil
}

func write(in io.Reader, out string) error {
	cur, err := summary(in)
	if err != nil {
		return err
	}
	if len(cur.Benchmarks) == 0 || len(cur.Workloads) == 0 {
		return fmt.Errorf("input has %d benchmark rows and %d driver workloads, want both", len(cur.Benchmarks), len(cur.Workloads))
	}
	cur.Date, cur.Go, cur.GOMAXPROCS = time.Now().UTC().Format(time.RFC3339), runtime.Version(), runtime.GOMAXPROCS(0)
	rec := record{Current: cur}
	prev, err := os.ReadFile(out)
	if err == nil {
		if err := json.Unmarshal(prev, &struct{ Baseline *json.RawMessage }{&rec.Baseline}); err != nil {
			return fmt.Errorf("parsing existing %s: %w", out, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep the baseline's bytes as they are
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return os.WriteFile(out, buf.Bytes(), 0o644)
}

// check is -check FILE: it compares the rows' counters on in to the
// record's "current" and prints their ns/op and allocs/op beside it.
func check(in io.Reader, path string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if rec.Current == nil {
		return fmt.Errorf("%s has no current record", path)
	}
	cur, err := summary(in)
	if err != nil {
		return err
	}
	if len(cur.Benchmarks) == 0 {
		return errors.New("input has no benchmark rows")
	}
	var bad []string
	for _, name := range slices.Sorted(maps.Keys(cur.Benchmarks)) {
		got := cur.Benchmarks[name]
		want, ok := rec.Current.Benchmarks[name]
		if !ok {
			if got.Counters != nil {
				bad = append(bad, fmt.Sprintf("%s: counters %v, row not in the record", name, got.Counters))
			}
			continue
		}
		fmt.Fprintf(out, "advisory %s: %.0f ns/op (record median %.0f), %.0f allocs/op (record %.0f)\n",
			name, got.NsOp.Median, want.NsOp.Median, got.AllocsOp, want.AllocsOp)
		if !maps.Equal(got.Counters, want.Counters) {
			bad = append(bad, fmt.Sprintf("%s: counters %v, record %v", name, got.Counters, want.Counters))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(rec.Current.Benchmarks)) {
		if _, ok := cur.Benchmarks[name]; !ok && rec.Current.Benchmarks[name].Counters != nil {
			bad = append(bad, fmt.Sprintf("%s: record has counters, row not run", name))
		}
	}
	for _, b := range bad {
		fmt.Fprintln(out, "MISMATCH", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d row(s) differ from %s in their counters", len(bad), path)
	}
	fmt.Fprintf(out, "counters of %d rows match %s\n", len(cur.Benchmarks), path)
	return nil
}

// pair prints the table of rev's stream against the tree's; a series' i-th
// sample is seed i on each side. Driver metrics take their direction and
// bound from manifest, and every result must carry every metric it declares.
func pair(rev, oldPath, newPath, manifest string, out io.Writer) error {
	var bm struct {
		EndToEnd []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile(manifest)
	if err == nil {
		err = json.Unmarshal(data, &bm)
	}
	if err != nil {
		return fmt.Errorf("reading %s: %w", manifest, err)
	}
	higher, det := map[string]bool{}, map[string]bool{}
	for _, m := range bm.EndToEnd {
		higher[m.Name], det[m.Name] = m.Better == "higher", m.Bound < 1e-6
	}
	need := slices.Sorted(maps.Keys(det))
	var sides [2]*stream
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err == nil {
			sides[i], err = read(bytes.NewReader(data), need)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", [2]string{rev, "tree"}[i], err)
		}
	}
	old, tree := sides[0], sides[1]
	quartiles := func(s stat) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Median, s.Q1, s.Q3) }
	fmt.Fprintf(out, "%-44s %-40s %-40s %7s %5s %4s\n", "row/metric", rev+" median [Q1, Q3]", "tree median [Q1, Q3]", "ratio", "wins", "gap")
	bad := 0
	for _, k := range old.order {
		o, n := old.xs[k], tree.xs[k]
		if n == nil {
			fmt.Fprintf(out, "%-44s %s only\n", k, rev)
			continue
		}
		if len(o) != len(n) {
			return fmt.Errorf("%s: %d samples from %s, %d from the tree", k, len(o), rev, len(n))
		}
		up := k.run && higher[k.unit]
		exact := k.run && det[k.unit] || !k.run && !slices.Contains(timed, k.unit)
		wins := 0
		for i := range o {
			if exact && o[i] != n[i] {
				fmt.Fprintf(out, "MISMATCH %s seed %d: %s %g, tree %g\n", k, i+1, rev, o[i], n[i])
				bad++
			}
			if up && n[i] > o[i] || !up && n[i] < o[i] {
				wins++
			}
		}
		so, sn := summarize(o), summarize(n)
		ratio, won, gap := 1.0, fmt.Sprintf("%d/%d", wins, len(o)), "no"
		if so.Median != 0 {
			ratio = sn.Median / so.Median
		}
		if math.Abs(sn.Median-so.Median) > so.Q3-so.Q1 {
			gap = "yes"
		}
		if exact {
			won, gap = "det", "-"
		}
		fmt.Fprintf(out, "%-44s %-40s %-40s %7.4f %5s %4s\n", k, quartiles(so), quartiles(sn), ratio, won, gap)
	}
	for _, k := range tree.order {
		if old.xs[k] == nil {
			fmt.Fprintf(out, "%-44s tree only\n", k)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d deterministic mismatch(es) between %s and the tree", bad, rev)
	}
	return nil
}

func summarize(xs []float64) stat {
	s := slices.Sorted(slices.Values(xs))
	return stat{len(s), quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75), s[0], s[len(s)-1]}
}

// quantile interpolates sorted s at rank p·(n+1), clamped to [1, n].
func quantile(s []float64, p float64) float64 {
	h := min(max(p*float64(len(s)+1), 1), float64(len(s)))
	j := int(h)
	if j == len(s) {
		return s[j-1]
	}
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}
