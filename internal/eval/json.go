package eval

import "encoding/json"

// The JSON export is a stable, tooling-friendly projection of sweep
// results: program texts instead of internal structures, seconds instead
// of durations.

// ResultJSON is the serialized form of a Result.
type ResultJSON struct {
	System         string       `json:"system"`
	Hierarchy      []int        `json:"hierarchy"`
	Axes           []int        `json:"axes"`
	ReduceAxes     []int        `json:"reduce_axes"`
	Algorithm      string       `json:"algorithm"`
	PayloadBytes   float64      `json:"payload_bytes"`
	SynthesisSecs  float64      `json:"synthesis_secs"`
	SimulationSecs float64      `json:"simulation_secs"`
	MeasureSecs    float64      `json:"measure_secs"`
	Matrices       []MatrixJSON `json:"matrices"`
}

// MatrixJSON is the serialized form of a MatrixResult.
type MatrixJSON struct {
	Matrix      string        `json:"matrix"`
	BaselineIdx int           `json:"baseline_idx"`
	Programs    []ProgramJSON `json:"programs"`
}

// ProgramJSON is the serialized form of one candidate of a MatrixResult.
type ProgramJSON struct {
	Program   string  `json:"program"`
	Steps     int     `json:"steps"`
	Predicted float64 `json:"predicted_secs"`
	Measured  float64 `json:"measured_secs"`
	// Algorithm is the per-program algorithm choice: one name when every
	// step agrees, a "/"-joined per-step sequence when the auto search
	// mixed algorithms.
	Algorithm string `json:"algorithm"`
}

// ToJSON serializes sweep results as indented JSON.
func ToJSON(results []*Result) ([]byte, error) {
	out := make([]ResultJSON, 0, len(results))
	for _, r := range results {
		rj := ResultJSON{
			System:         r.Config.Sys.Name,
			Hierarchy:      r.Config.Sys.Hierarchy(),
			Axes:           r.Config.Axes,
			ReduceAxes:     r.Config.ReduceAxes,
			Algorithm:      r.Config.algoLabel(),
			PayloadBytes:   r.Config.Bytes,
			SynthesisSecs:  r.SynthesisTime.Seconds(),
			SimulationSecs: r.SimulationTime.Seconds(),
			MeasureSecs:    r.MeasureTime.Seconds(),
		}
		for _, mr := range r.Matrices {
			mj := MatrixJSON{
				Matrix:      mr.Matrix.String(),
				BaselineIdx: mr.BaselineIdx,
			}
			for _, p := range mr.Programs {
				mj.Programs = append(mj.Programs, ProgramJSON{
					Program:   p.Program.String(),
					Steps:     len(p.Program),
					Predicted: p.Predicted,
					Measured:  p.Measured,
					Algorithm: p.AlgoString(),
				})
			}
			rj.Matrices = append(rj.Matrices, mj)
		}
		out = append(out, rj)
	}
	return json.MarshalIndent(out, "", "  ")
}
