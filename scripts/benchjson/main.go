// Command benchjson writes the repo's performance record, BENCH_plan.json,
// from what scripts/bench.sh prints on stdin:
//
//   - `go test -bench -benchmem -count N` output for the tracked layer
//     rows, whose "cpu:" header names the machine;
//   - the benchmark driver's reports (`bench --workload W --seed s
//     --trace 0`), each a "== W: …" header and, last, a JSON result line;
//   - a "commit: …" line naming the measured tree.
//
// Each row gets the median, quartiles, min and max of its ns/op samples
// and the median B/op and allocs/op; each workload × end-to-end metric
// gets the same statistics over its runs. The file's existing "baseline"
// is kept byte for byte; "current" is rewritten.
//
// It refuses, exiting non-zero and writing nothing, input without
// benchmark rows or driver results, and any driver result that is not
// correct or has failed ops.
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
	NsOp     stat    `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
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

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

func main() {
	out := flag.String("o", "BENCH_plan.json", "output file")
	flag.Parse()
	if err := write(os.Stdin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
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
	rows := map[string][3][]float64{} // ns/op, B/op, allocs/op samples
	runs := map[string]map[string][]float64{}
	workload := ""
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if m := benchLine.FindStringSubmatch(line); m != nil {
			r := rows[m[1]]
			for i := range r {
				v, _ := strconv.ParseFloat(m[i+2], 64) // the regexp admits only numbers
				r[i] = append(r[i], v)
			}
			rows[m[1]] = r
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
	for name, r := range rows {
		cur.Benchmarks[name] = row{summarize(r[0]), summarize(r[1]).Median, summarize(r[2]).Median}
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
