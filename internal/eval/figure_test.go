package eval

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p2/internal/cost"
	"p2/internal/plan"
	"p2/internal/topology"
)

// chartResult builds a one-matrix sweep whose candidates carry the given
// (measured, predicted) pairs; Figure11Chart reads nothing else.
func chartResult(times ...[2]float64) *Result {
	mr := &MatrixResult{}
	for _, tm := range times {
		mr.Programs = append(mr.Programs, &plan.Candidate{Measured: tm[0], Predicted: tm[1]})
	}
	return &Result{Config: Config{Sys: topology.Fig2aSystem(), Axes: []int{4}, ReduceAxes: []int{0}},
		Matrices: []*MatrixResult{mr}}
}

// chartGrid returns the plot-area rows of a chart (the title line
// dropped), each starting at the grid's first column.
func chartGrid(t *testing.T, chart string) []string {
	t.Helper()
	lines := strings.Split(chart, "\n")
	if len(lines) != 1+chartHeight+4 {
		t.Fatalf("chart has %d lines:\n%s", len(lines), chart)
	}
	rows := lines[1 : 1+chartHeight]
	for i, r := range rows {
		rows[i] = r[len("123456789 |"):]
	}
	return rows
}

// TestFigure11ChartGolden holds the chart's bytes to testdata: both paper
// panels (wall-clock fields zeroed) and three synthetic sweeps — one
// candidate, every time equal (a degenerate y range) and none. The
// golden was recorded when the chart was still drawn by a general
// charting package; regenerate only for a deliberate change:
// `go test ./internal/eval/ -run Figure11ChartGolden -update`.
func TestFigure11ChartGolden(t *testing.T) {
	var got strings.Builder
	for _, cfg := range []Config{
		{Sys: topology.V100System(4), Axes: []int{2, 16}, ReduceAxes: []int{1}, Algos: []cost.Algorithm{cost.Ring}},
		{Sys: topology.A100System(4), Axes: []int{4, 2, 8}, ReduceAxes: []int{0, 2}, Algos: []cost.Algorithm{cost.Tree}},
	} {
		r, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.SynthesisTime, r.SimulationTime = 0, 0
		got.WriteString(Figure11Chart(r))
	}
	got.WriteString(Figure11Chart(chartResult([2]float64{2e-3, 1.5e-3})))
	got.WriteString(Figure11Chart(chartResult([2]float64{1e-3, 1e-3}, [2]float64{1e-3, 1e-3})))
	got.WriteString(Figure11Chart(chartResult()))
	golden := filepath.Join("testdata", "figure11-chart.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("Figure11Chart differs from %s:\n%s", golden, got.String())
	}
}

func TestFigure11Chart(t *testing.T) {
	r := run416(t, cost.Ring)
	chart := Figure11Chart(r)
	if !strings.Contains(chart, "measured") || !strings.Contains(chart, "simulated") {
		t.Error("chart legend missing")
	}
	if !strings.Contains(chart, "*") || !strings.Contains(chart, "x") {
		t.Error("chart markers missing")
	}
	if !strings.Contains(chart, "Figure 11") {
		t.Error("chart title missing")
	}
	chartGrid(t, chart)
}

// TestFigure11ChartBasic: a five-candidate sweep carries the title, both
// markers, the legend, the axis labels, and exactly the title, the plot
// rows, the axis, the x label, the legend and a trailing empty line.
func TestFigure11ChartBasic(t *testing.T) {
	chart := Figure11Chart(chartResult([2]float64{1, 1.5}, [2]float64{2, 2.5},
		[2]float64{3, 2.8}, [2]float64{4, 4.2}, [2]float64{5, 4.9}))
	if !strings.Contains(chart, "Figure 11") {
		t.Error("title missing")
	}
	grid := strings.Join(chartGrid(t, chart), "\n")
	if !strings.Contains(grid, "*") || !strings.Contains(grid, "x") {
		t.Error("markers missing")
	}
	if !strings.Contains(chart, "* = measured") || !strings.Contains(chart, "x = simulated") {
		t.Error("legend missing")
	}
	for _, want := range []string{"programs in increasing order of measured time", "y: seconds (log)"} {
		if !strings.Contains(chart, want) {
			t.Errorf("axis label %q missing", want)
		}
	}
	if lines := strings.Split(chart, "\n"); len(lines) != 1+chartHeight+1+1+1+1 {
		t.Errorf("line count = %d", len(lines))
	}
}

// TestFigure11ChartTopBottom: the largest value is drawn on the top row
// at the rightmost column, the smallest on the bottom row at the
// leftmost.
func TestFigure11ChartTopBottom(t *testing.T) {
	rows := chartGrid(t, Figure11Chart(chartResult([2]float64{1, 1}, [2]float64{10, 10})))
	if rows[0][chartWidth-1] != 'x' {
		t.Errorf("max not at the top right: %q", rows[0])
	}
	if rows[chartHeight-1][0] != 'x' {
		t.Errorf("min not at the bottom left: %q", rows[chartHeight-1])
	}
}

// TestFigure11ChartLogPlacement: on the log axis the geometric midpoint of
// the range lands on the middle row, which the axis labels 1.
func TestFigure11ChartLogPlacement(t *testing.T) {
	chart := Figure11Chart(chartResult([2]float64{0.001, 0.001}, [2]float64{1, 1}, [2]float64{1000, 1000}))
	mid := (chartHeight - 1) / 2
	if rows := chartGrid(t, chart); rows[mid][(chartWidth-1)/2] != 'x' {
		t.Errorf("log midpoint misplaced:\n%s", chart)
	}
	if label := strings.Split(chart, "\n")[1+mid][:9]; strings.TrimSpace(label) != "1" {
		t.Errorf("middle row label = %q, want 1", label)
	}
}

// TestFigure11ChartSkipsNonPositive: NaN, zero and negative times have no
// place on a log axis and are not drawn.
func TestFigure11ChartSkipsNonPositive(t *testing.T) {
	grid := strings.Join(chartGrid(t, Figure11Chart(chartResult(
		[2]float64{-5, math.NaN()}, [2]float64{1, 0}, [2]float64{10, 2}))), "\n")
	if n := strings.Count(grid, "*") + strings.Count(grid, "x"); n != 3 {
		t.Errorf("plotted %d points, want 3:\n%s", n, grid)
	}
}

// TestFigure11ChartSinglePoint: a one-candidate sweep draws both of its
// times.
func TestFigure11ChartSinglePoint(t *testing.T) {
	grid := strings.Join(chartGrid(t, Figure11Chart(chartResult([2]float64{42, 21}))), "\n")
	if !strings.Contains(grid, "*") || !strings.Contains(grid, "x") {
		t.Errorf("single candidate missing:\n%s", grid)
	}
}

// TestFigure11ChartEmpty: a sweep with no drawable time prints its title
// and "(no data)".
func TestFigure11ChartEmpty(t *testing.T) {
	for _, r := range []*Result{chartResult(), chartResult([2]float64{math.NaN(), 0}, [2]float64{-1, math.NaN()})} {
		chart := Figure11Chart(r)
		if lines := strings.Split(chart, "\n"); len(lines) != 3 || lines[1] != "(no data)" {
			t.Errorf("empty chart = %q", chart)
		}
	}
}
