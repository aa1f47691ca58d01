package eval

import (
	"fmt"

	"p2/internal/plot"
)

// Figure11Chart renders one sweep as the paper's Figure 11: every
// (matrix, program) pair in increasing order of measured time, with
// measurements drawn as '*' (the paper's solid dots) and analytic
// predictions as 'x' (the paper's translucent crosses), on a log y axis.
func Figure11Chart(r *Result) string {
	cands := r.byMeasured()
	measured := make([]float64, len(cands))
	predicted := make([]float64, len(cands))
	for i, c := range cands {
		measured[i] = c.Measured
		predicted[i] = c.Predicted
	}
	title := fmt.Sprintf("Figure 11 — %s: %d programs, synthesis %.2fs, simulation %.2fs",
		r.Config, len(cands), r.SynthesisTime.Seconds(), r.SimulationTime.Seconds())
	return plot.Chart(title, []plot.Series{
		{Name: "measured", Marker: '*', Values: measured},
		{Name: "simulated", Marker: 'x', Values: predicted},
	}, plot.Options{
		Width:  96,
		Height: 20,
		LogY:   true,
		YLabel: "seconds (log)",
		XLabel: "programs in increasing order of measured time",
	})
}
