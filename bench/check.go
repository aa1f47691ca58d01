package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"p2"
)

// entry is one ranked strategy as the checks compare it. Times are
// rounded to nine significant digits, so platforms that fuse
// multiply-adds differently still agree.
type entry struct {
	Matrix  string `json:"matrix"`
	Program string `json:"program"`
	Algo    string `json:"algo"`
	Pred    string `json:"pred_s"`
	Meas    string `json:"meas_s,omitempty"`
}

func sig9(v float64) string { return strconv.FormatFloat(v, 'g', 9, 64) }

func measString(v float64) string {
	if v == 0 {
		return ""
	}
	return sig9(v)
}

// ranking is an op's whole output in comparable form, plus what the
// deterministic metrics need from its first entry.
type ranking struct {
	entries []entry
	// bestPred is the rank-1 predicted time in seconds (a joint plan's
	// weighted total).
	bestPred float64
	// best is the rank-1 strategy, nil for joint plans and daemon
	// responses.
	best *p2.Strategy
}

func rankingOfPlan(res *p2.PlanResult) ranking {
	r := ranking{entries: make([]entry, len(res.Strategies)), bestPred: res.Best().Predicted, best: res.Best()}
	for i, s := range res.Strategies {
		r.entries[i] = entry{
			Matrix:  s.Matrix.String(),
			Program: s.Program.String(),
			Algo:    s.AlgoString(),
			Pred:    sig9(s.Predicted),
			Meas:    measString(s.Measured),
		}
	}
	return r
}

// rankingOfJoint renders each placement choice as one entry: the
// per-reduction winners joined, the weighted total as its time.
func rankingOfJoint(jp *p2.JointPlan) ranking {
	r := ranking{entries: make([]entry, len(jp.Choices)), bestPred: jp.Best().Total}
	for i, c := range jp.Choices {
		progs := make([]string, len(c.PerReduction))
		algos := make([]string, len(c.PerReduction))
		for ri, s := range c.PerReduction {
			progs[ri], algos[ri] = s.Program.String(), s.AlgoString()
		}
		r.entries[i] = entry{
			Matrix:  c.Matrix.String(),
			Program: strings.Join(progs, " | "),
			Algo:    strings.Join(algos, " | "),
			Pred:    sig9(c.Total),
		}
	}
	return r
}

func rankingOfResponse(resp *planResponse) ranking {
	r := ranking{entries: make([]entry, len(resp.Strategies))}
	for i, s := range resp.Strategies {
		r.entries[i] = entry{Matrix: s.Matrix, Program: s.Program, Algo: s.Algo,
			Pred: sig9(s.PredictedSec), Meas: measString(s.MeasuredSec)}
	}
	if len(resp.Strategies) > 0 {
		r.bestPred = resp.Strategies[0].PredictedSec
	}
	return r
}

// diff reports the first difference between two entry lists, or "".
func diffEntries(got, want []entry) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d strategies, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("rank %d is %+v, want %+v", i+1, got[i], want[i])
		}
	}
	return ""
}

// golden is the committed expectation for one library shape: the first
// ten entries in clear, and a hash of the whole ordered list.
type golden struct {
	Count  int     `json:"count"`
	Head   []entry `json:"head"`
	SHA256 string  `json:"sha256"`
}

const goldenHead = 10

func goldenOf(entries []entry) golden {
	h := sha256.New()
	for _, e := range entries {
		fmt.Fprintf(h, "%s\t%s\t%s\t%s\t%s\n", e.Matrix, e.Program, e.Algo, e.Pred, e.Meas)
	}
	head := entries
	if len(head) > goldenHead {
		head = head[:goldenHead]
	}
	return golden{Count: len(entries), Head: head, SHA256: hex.EncodeToString(h.Sum(nil))}
}

// check compares a ranking with the golden.
func (g golden) check(entries []entry) string {
	got := goldenOf(entries)
	if d := diffEntries(got.Head, g.Head); d != "" {
		return d
	}
	if got.Count != g.Count {
		return fmt.Sprintf("%d strategies, want %d", got.Count, g.Count)
	}
	if got.SHA256 != g.SHA256 {
		return "ranking differs from the golden beyond rank " + strconv.Itoa(goldenHead)
	}
	return ""
}

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile is where -write-golden writes, relative to the repo root.
const goldenFile = "bench/testdata/golden.json"

// loadGoldens decodes the committed goldens, keyed by workload then shape
// name.
func loadGoldens() (map[string]map[string]golden, error) {
	var g map[string]map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decoding %s (regenerate with -write-golden): %w", goldenFile, err)
	}
	return g, nil
}

// topKPrefixOfFull checks that wherever a shape has both a top-K and a
// full golden, the former is the latter's prefix. It returns the number of
// pairs compared.
func topKPrefixOfFull(goldens map[string]map[string]golden) (int, error) {
	fullOf := func(s shape) string { s.TopK = 0; return s.name() }
	pairs := 0
	for _, w := range workloads() {
		for _, s := range w.shapes {
			if w.serve || s.joint != nil || s.TopK == 0 || s.Measure != "" {
				continue
			}
			top, ok := goldens[w.name][s.name()]
			if !ok {
				return pairs, fmt.Errorf("no golden for %s/%s", w.name, s.name())
			}
			for _, fw := range workloads() {
				full, ok := goldens[fw.name][fullOf(s)]
				if !ok || fw.serve {
					continue
				}
				pairs++
				n := min(len(top.Head), len(full.Head))
				if d := diffEntries(top.Head[:n], full.Head[:n]); d != "" || top.Count > full.Count {
					return pairs, fmt.Errorf("top-%d golden of %q is not a prefix of its full golden: %s", s.TopK, s.name(), d)
				}
			}
		}
	}
	return pairs, nil
}

// baselinePred is the predicted time of the single-AllReduce program on
// the given placement: what the paper's speedups are measured against.
// The benchmark lowers and scores it itself rather than asking the
// planner.
func baselinePred(sys *p2.System, req p2.Request, m *p2.Matrix) (float64, error) {
	h, err := buildHierarchy(m, req.ReduceAxes)
	if err != nil {
		return 0, err
	}
	lp, err := lowerProgram(baselineAllReduce(), h)
	if err != nil {
		return 0, err
	}
	model := modelFor(sys, req)
	if len(req.Algos) > 1 {
		_, t := model.BestStepAlgos(lp, req.Algos)
		return t, nil
	}
	return model.ProgramTime(lp), nil
}
