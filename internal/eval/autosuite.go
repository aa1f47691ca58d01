package eval

import (
	"encoding/json"

	"p2/internal/plan"
)

// The analytic-vs-measured agreement quantities of a suite — typically
// the paper's grid swept in auto mode (RunSuiteCtx with
// cost.ExtendedAlgorithms) — that the measured-in-the-loop planning mode
// is motivated by: how often the cost model's argmin and the emulator's
// argmin disagree, and by how much.

// Disagreement reports whether the analytic and measured rankings of the
// sweep disagree on the best candidate — the quantity the ROADMAP's
// measured-in-the-loop mode exists to correct.
func (r *Result) Disagreement() bool { return !r.TopKHit(1) }

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

// PairJSON is the serialized form of one (matrix, program) candidate in
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

// pairJSON projects a candidate.
func pairJSON(c *plan.Candidate) PairJSON {
	return PairJSON{
		Matrix:    c.Matrix.String(),
		Program:   c.Program.String(),
		Algorithm: c.AlgoString(),
		Predicted: c.Predicted,
		Measured:  c.Measured,
	}
}

// BuildAutoSuite aggregates sweep results into the per-system export
// envelopes, grouping in first-appearance order (deterministic for the
// deterministic suite runners).
func BuildAutoSuite(results []*Result) []AutoSuiteJSON {
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
			PredictedBest: pairJSON(r.Ranked[0]),
			MeasuredBest:  pairJSON(r.MeasuredBest()),
			Disagree:      r.Disagreement(),
		})
	}
	for i := range out {
		rs := grouped[out[i].System]
		out[i].TopKAccuracy = Accuracy(rs, topKs)
		out[i].DisagreementRate = DisagreementRate(rs)
	}
	return out
}

// AutoSuiteToJSON serializes auto-suite sweeps as indented JSON (the
// tooling-friendly counterpart of the accuracy table's auto rows).
func AutoSuiteToJSON(results []*Result) ([]byte, error) {
	return json.MarshalIndent(BuildAutoSuite(results), "", "  ")
}
