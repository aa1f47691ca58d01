package eval

import (
	"bytes"
	"fmt"
	"math"
	"strings"
)

// Figure 11's ASCII geometry: a chartWidth × chartHeight plot area, its
// log10 y axis labelled on the top, middle and bottom rows.
const (
	chartWidth  = 96
	chartHeight = 20
)

// Figure11Chart renders one sweep as the paper's Figure 11: every
// (matrix, program) pair in increasing order of measured time, with
// measurements drawn as '*' (the paper's solid dots) and analytic
// predictions as 'x' (the paper's translucent crosses), on a log y axis.
// A time that is NaN or not positive has no place on that axis and is
// skipped; a prediction overdraws any measurement in its cell.
func Figure11Chart(r *Result) string {
	cands := r.byMeasured()
	title := fmt.Sprintf("Figure 11 — %s: %d programs, synthesis %.2fs, simulation %.2fs\n",
		r.Config, len(cands), r.SynthesisTime.Seconds(), r.SimulationTime.Seconds())
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cands {
		for _, v := range [...]float64{c.Measured, c.Predicted} {
			if v > 0 && v < lo {
				lo = v
			}
			if v > 0 && v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) {
		return title + "(no data)\n"
	}
	ylo, yhi := math.Log10(lo), math.Log10(hi)
	//p2:nan-ok lo and hi are positive times, so neither log is NaN
	if yhi == ylo {
		yhi = ylo + 1
	}

	grid := bytes.Repeat([]byte{' '}, chartWidth*chartHeight)
	for _, mark := range []byte("*x") {
		for i, c := range cands {
			v := c.Measured
			if mark == 'x' {
				v = c.Predicted
			}
			if !(v > 0) {
				continue
			}
			x := 0
			if len(cands) > 1 {
				x = i * (chartWidth - 1) / (len(cands) - 1)
			}
			yFrac := (math.Log10(v) - ylo) / (yhi - ylo)
			row := chartHeight - 1 - int(math.Round(yFrac*(chartHeight-1)))
			grid[min(max(row, 0), chartHeight-1)*chartWidth+x] = mark
		}
	}

	var b strings.Builder
	b.WriteString(title)
	label := func(frac float64) string {
		return fmt.Sprintf("%9.3g", math.Pow(10, ylo+frac*(yhi-ylo)))
	}
	for row := range chartHeight {
		switch row {
		case 0:
			b.WriteString(label(1))
		case chartHeight - 1:
			b.WriteString(label(0))
		case (chartHeight - 1) / 2:
			b.WriteString(label(0.5))
		default:
			b.WriteString(strings.Repeat(" ", 9))
		}
		b.WriteString(" |")
		b.Write(grid[row*chartWidth : (row+1)*chartWidth])
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 10) + "+" + strings.Repeat("-", chartWidth) + "\n")
	b.WriteString(strings.Repeat(" ", 11) + "programs in increasing order of measured time\n")
	b.WriteString(strings.Repeat(" ", 11) + "* = measured   x = simulated   y: seconds (log)\n")
	return b.String()
}
