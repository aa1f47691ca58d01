// Command benchjson writes the repo's performance record, BENCH_plan.json,
// from what scripts/bench.sh prints on stdin:
//
//   - `go test -bench -benchmem -count N` output for the tracked layer
//     rows, whose "cpu:" header names the machine;
//   - the benchmark driver's reports (`bench --workload W --seed s
//     --trace 0`), each a "== W: …" header and, last, a JSON result line;
//   - a "commit: …" line naming the measured tree.
//
// Each row gets the median, quartiles, min and max of its ns/op samples,
// the median B/op and allocs/op, and the exact value of every other metric
// it reports: the work counters (placements, synthesis runs, explored,
// programs, ...) of the tracked planning and synthesis rows and the events
// of the emulator rows. Each workload × end-to-end metric gets the same
// statistics over its runs. The file's existing "baseline" is kept byte
// for byte; "current" is rewritten.
//
// It refuses, exiting non-zero and writing nothing, input without
// benchmark rows or driver results, a counter whose samples differ, and
// any driver result that is not correct or has failed ops.
//
// With -check FILE it writes nothing: it reads `go test -bench` output
// alone and fails when a row's counters differ from FILE's "current", or
// when a row with counters is on one side only. Timings and allocs/op are
// printed beside the record's medians as advice, never failed on.
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
	flag.Parse()
	var err error
	if *checkAgainst != "" {
		err = check(os.Stdin, *checkAgainst, os.Stdout)
	} else {
		err = write(os.Stdin, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// samples are one row's values by unit, in input order.
type samples map[string][]float64

// parseRow parses a benchmark result line, reporting false for any other
// line and for a row missing one of the timed units.
func parseRow(line string) (string, map[string]float64, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return "", nil, false
	}
	f := strings.Fields(m[2])
	vals := map[string]float64{}
	for i := 0; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals[f[i+1]] = v
	}
	for _, u := range timed {
		if _, ok := vals[u]; !ok {
			return "", nil, false
		}
	}
	return m[1], vals, true
}

// summarizeRow reduces a row's samples; a counter must have one value.
func summarizeRow(name string, s samples) (row, error) {
	r := row{NsOp: summarize(s["ns/op"]), BOp: summarize(s["B/op"]).Median, AllocsOp: summarize(s["allocs/op"]).Median}
	for unit, xs := range s {
		if slices.Contains(timed, unit) {
			continue
		}
		if slices.Min(xs) != slices.Max(xs) {
			return row{}, fmt.Errorf("%s: counter %s varies across samples: %v", name, unit, xs)
		}
		if r.Counters == nil {
			r.Counters = map[string]float64{}
		}
		r.Counters[unit] = xs[0]
	}
	return r, nil
}

// addSample appends a parsed row's values to its samples.
func addSample(rows map[string]samples, name string, vals map[string]float64) {
	if rows[name] == nil {
		rows[name] = samples{}
	}
	for unit, v := range vals {
		rows[name][unit] = append(rows[name][unit], v)
	}
}

func write(in io.Reader, out string) error {
	cur := &run{
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]row{},
		Workloads:  map[string]map[string]stat{},
	}
	rows := map[string]samples{}
	runs := map[string]map[string][]float64{}
	workload := ""
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if name, vals, ok := parseRow(line); ok {
			addSample(rows, name, vals)
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			cur.CPU = v
		} else if v, ok := strings.CutPrefix(line, "commit: "); ok {
			cur.Commit = v
		} else if v, ok := strings.CutPrefix(line, "== "); ok {
			workload, _, _ = strings.Cut(v, ":")
		} else if strings.HasPrefix(line, "{") {
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return fmt.Errorf("%s: parsing driver result: %w", workload, err)
			}
			if !res.Correct || res.Failed > 0 || workload == "" {
				return fmt.Errorf("refusing driver result of workload %q (correct %t, %d of %d ops failed)",
					workload, res.Correct, res.Failed, res.Attempted)
			}
			if runs[workload] == nil {
				runs[workload] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				runs[workload][name] = append(runs[workload][name], m.Value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rows) == 0 || len(runs) == 0 {
		return fmt.Errorf("input has %d benchmark rows and %d driver workloads, want both", len(rows), len(runs))
	}
	for name, s := range rows {
		r, err := summarizeRow(name, s)
		if err != nil {
			return err
		}
		cur.Benchmarks[name] = r
	}
	for w, metrics := range runs {
		cur.Workloads[w] = map[string]stat{}
		for name, xs := range metrics {
			cur.Workloads[w][name] = summarize(xs)
		}
	}

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

// check compares the counters of the `go test -bench` rows on in to the
// record's current rows and prints every row's timings and allocs/op next
// to the record's medians. It fails on any counter difference and on a row
// with counters that only one side has.
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
	rows := map[string]samples{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if name, vals, ok := parseRow(sc.Text()); ok {
			addSample(rows, name, vals)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rows) == 0 {
		return errors.New("input has no benchmark rows")
	}
	var bad []string
	for _, name := range slices.Sorted(maps.Keys(rows)) {
		got, err := summarizeRow(name, rows[name])
		if err != nil {
			return err
		}
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
		if _, ok := rows[name]; !ok && rec.Current.Benchmarks[name].Counters != nil {
			bad = append(bad, fmt.Sprintf("%s: record has counters, row not run", name))
		}
	}
	for _, b := range bad {
		fmt.Fprintln(out, "MISMATCH", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d row(s) differ from %s in their counters", len(bad), path)
	}
	fmt.Fprintf(out, "counters of %d rows match %s\n", len(rows), path)
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
