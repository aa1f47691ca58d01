// Package plot renders simple ASCII charts for experiment figures — enough
// to reproduce the shape of the paper's Figure 11 (measurement vs.
// simulation series) in a terminal or a text report, with linear or
// logarithmic y axes.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted sequence; point i is drawn at x-position i.
type Series struct {
	// Name appears in the legend.
	Name string
	// Marker is the glyph used for the series' points.
	Marker byte
	// Values are the y values; NaN entries are skipped.
	Values []float64
}

// Options control chart geometry.
type Options struct {
	// Width and Height are the plot-area dimensions in characters
	// (defaults 64×16).
	Width, Height int
	// LogY switches the y axis to log10 scale (values must be > 0).
	LogY bool
	// YLabel annotates the y axis.
	YLabel string
	// XLabel annotates the x axis.
	XLabel string
}

const (
	defaultWidth  = 64
	defaultHeight = 16
)

// Chart renders the series into an ASCII chart. Later series overdraw
// earlier ones where points collide.
func Chart(title string, series []Series, opts Options) string {
	if opts.Width <= 0 {
		opts.Width = defaultWidth
	}
	if opts.Height <= 0 {
		opts.Height = defaultHeight
	}
	maxN := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Values) > maxN {
			maxN = len(s.Values)
		}
		for _, v := range s.Values {
			//p2:nan-ok the IsNaN arm already routes NaN to the skip branch
			if math.IsNaN(v) || (opts.LogY && v <= 0) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if maxN == 0 || math.IsInf(lo, 1) {
		return title + "\n(no data)\n"
	}
	yf := func(v float64) float64 { return v }
	if opts.LogY {
		yf = math.Log10
		//p2:nan-ok lo is a minimum over IsNaN-filtered values
		if lo <= 0 {
			lo = math.SmallestNonzeroFloat64
		}
	}
	ylo, yhi := yf(lo), yf(hi)
	//p2:nan-ok lo/hi are minima/maxima over IsNaN-filtered values
	if yhi == ylo {
		yhi = ylo + 1
	}

	grid := make([][]byte, opts.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", opts.Width))
	}
	for _, s := range series {
		for i, v := range s.Values {
			//p2:nan-ok the IsNaN arm already routes NaN to the skip branch
			if math.IsNaN(v) || (opts.LogY && v <= 0) {
				continue
			}
			x := 0
			if maxN > 1 {
				x = i * (opts.Width - 1) / (maxN - 1)
			}
			yFrac := (yf(v) - ylo) / (yhi - ylo)
			row := opts.Height - 1 - int(math.Round(yFrac*float64(opts.Height-1)))
			if row < 0 {
				row = 0
			}
			if row >= opts.Height {
				row = opts.Height - 1
			}
			grid[row][x] = s.Marker
		}
	}

	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	axisLabel := func(frac float64) string {
		v := ylo + frac*(yhi-ylo)
		if opts.LogY {
			v = math.Pow(10, v)
		}
		return fmt.Sprintf("%9.3g", v)
	}
	for r := 0; r < opts.Height; r++ {
		switch r {
		case 0:
			b.WriteString(axisLabel(1))
		case opts.Height - 1:
			b.WriteString(axisLabel(0))
		case (opts.Height - 1) / 2:
			b.WriteString(axisLabel(0.5))
		default:
			b.WriteString(strings.Repeat(" ", 9))
		}
		b.WriteString(" |")
		b.Write(grid[r])
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 10) + "+" + strings.Repeat("-", opts.Width) + "\n")
	if opts.XLabel != "" {
		b.WriteString(strings.Repeat(" ", 11) + opts.XLabel + "\n")
	}
	legend := make([]string, 0, len(series))
	for _, s := range series {
		legend = append(legend, fmt.Sprintf("%c = %s", s.Marker, s.Name))
	}
	if opts.YLabel != "" {
		legend = append(legend, "y: "+opts.YLabel)
	}
	b.WriteString(strings.Repeat(" ", 11) + strings.Join(legend, "   ") + "\n")
	return b.String()
}
