package eval

import (
	"encoding/json"
	"fmt"
)

// The analytic-vs-measured agreement quantities of a suite — typically
// the paper's grid swept in auto mode (RunSuiteCtx with
// cost.ExtendedAlgorithms) — that the measured-in-the-loop planning mode
// is motivated by: how often the cost model's argmin and the emulator's
// argmin disagree, and by how much.

// PredictedBest returns the sweep's predicted-best (matrix, program)
// pair — ties broken toward the earliest enumeration position, matching
// the planner's deterministic order.
func (r *Result) PredictedBest() Pair {
	pairs := r.Pairs()
	best := 0
	for i, p := range pairs {
		if p.Predicted < pairs[best].Predicted {
			best = i
		}
	}
	return pairs[best]
}

// MeasuredBest returns the sweep's measured-best (matrix, program) pair,
// ties broken toward the earliest enumeration position.
func (r *Result) MeasuredBest() Pair {
	pairs := r.Pairs()
	best := 0
	for i, p := range pairs {
		if p.Measured < pairs[best].Measured {
			best = i
		}
	}
	return pairs[best]
}

// Disagreement reports whether the analytic and measured rankings of the
// sweep disagree on the best candidate — the quantity the ROADMAP's
// measured-in-the-loop mode exists to correct (equivalently, !TopKHit(1)).
func (r *Result) Disagreement() bool {
	p, m := r.PredictedBest(), r.MeasuredBest()
	return p.MatrixIdx != m.MatrixIdx || p.ProgramIdx != m.ProgramIdx
}

// DisagreementRate is the fraction of sweeps whose analytic argmin
// differs from the measured argmin.
func DisagreementRate(results []*Result) float64 {
	if len(results) == 0 {
		return 0
	}
	n := 0
	for _, r := range results {
		if r.Disagreement() {
			n++
		}
	}
	return float64(n) / float64(len(results))
}

// PairJSON is the serialized form of one ranked (matrix, program) pair in
// the auto-suite export.
type PairJSON struct {
	Matrix    string  `json:"matrix"`
	Program   string  `json:"program"`
	Algorithm string  `json:"algorithm"`
	Predicted float64 `json:"predicted_secs"`
	Measured  float64 `json:"measured_secs"`
}

// SweepJSON summarizes one sweep of the auto-suite export: its
// predicted-best and measured-best candidates and whether they disagree.
type SweepJSON struct {
	Config        string   `json:"config"`
	Axes          []int    `json:"axes"`
	ReduceAxes    []int    `json:"reduce_axes"`
	Programs      int      `json:"programs"`
	PredictedBest PairJSON `json:"predicted_best"`
	MeasuredBest  PairJSON `json:"measured_best"`
	Disagree      bool     `json:"disagree"`
}

// AutoSuiteJSON is the per-system envelope of the auto-suite export: the
// sweeps plus the aggregate accuracy and disagreement-rate quantities of
// the accuracy table's auto row.
type AutoSuiteJSON struct {
	System           string          `json:"system"`
	Sweeps           []SweepJSON     `json:"sweeps"`
	TopKAccuracy     map[int]float64 `json:"top_k_accuracy"`
	DisagreementRate float64         `json:"disagreement_rate"`
}

// pairJSON projects a Pair through its owning Result.
func pairJSON(r *Result, p Pair) PairJSON {
	pr := r.Matrices[p.MatrixIdx].Programs[p.ProgramIdx]
	return PairJSON{
		Matrix:    r.Matrices[p.MatrixIdx].Matrix.String(),
		Program:   pr.Program.String(),
		Algorithm: pr.AlgoString(),
		Predicted: p.Predicted,
		Measured:  p.Measured,
	}
}

// BuildAutoSuite aggregates sweep results into the per-system export
// envelopes, grouping in first-appearance order (deterministic for the
// deterministic suite runners).
func BuildAutoSuite(results []*Result) []AutoSuiteJSON {
	ks := []int{1, 2, 3, 5, 6, 10}
	bySys := map[string]int{}
	var out []AutoSuiteJSON
	grouped := map[string][]*Result{}
	for _, r := range results {
		name := r.Config.Sys.Name
		if _, ok := bySys[name]; !ok {
			bySys[name] = len(out)
			out = append(out, AutoSuiteJSON{System: name})
		}
		grouped[name] = append(grouped[name], r)
		env := &out[bySys[name]]
		env.Sweeps = append(env.Sweeps, SweepJSON{
			Config:        r.Config.String(),
			Axes:          r.Config.Axes,
			ReduceAxes:    r.Config.ReduceAxes,
			Programs:      r.TotalPrograms(),
			PredictedBest: pairJSON(r, r.PredictedBest()),
			MeasuredBest:  pairJSON(r, r.MeasuredBest()),
			Disagree:      r.Disagreement(),
		})
	}
	for i := range out {
		rs := grouped[out[i].System]
		out[i].TopKAccuracy = Accuracy(rs, ks)
		out[i].DisagreementRate = DisagreementRate(rs)
	}
	return out
}

// AutoSuiteToJSON serializes auto-suite sweeps as indented JSON (the
// tooling-friendly counterpart of the accuracy table's auto rows).
func AutoSuiteToJSON(results []*Result) ([]byte, error) {
	return json.MarshalIndent(BuildAutoSuite(results), "", "  ")
}

// AutoSuiteFromJSON parses the export back (for downstream tools and
// tests).
func AutoSuiteFromJSON(data []byte) ([]AutoSuiteJSON, error) {
	var out []AutoSuiteJSON
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("eval: decoding auto-suite results: %w", err)
	}
	return out, nil
}
