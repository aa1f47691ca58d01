package eval

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"p2/internal/cost"
	"p2/internal/netsim"
	"p2/internal/placement"
	"p2/internal/topology"
)

// run416 sweeps the Table 4 G configuration: 4-node A100, axes [4 16],
// reduce axis 0.
func run416(t *testing.T, algo cost.Algorithm) *Result {
	t.Helper()
	r, err := RunCtx(context.Background(), Config{
		Sys:        topology.A100System(4),
		Axes:       []int{4, 16},
		ReduceAxes: []int{0},
		Algo:       algo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunProducesAllMatrices(t *testing.T) {
	r := run416(t, cost.Ring)
	if len(r.Matrices) != 3 {
		t.Fatalf("matrices = %d, want 3", len(r.Matrices))
	}
	for _, mr := range r.Matrices {
		if len(mr.Programs) == 0 {
			t.Errorf("%v: no programs", mr.Matrix)
		}
		if mr.BaselineIdx < 0 || mr.BaselineIdx >= len(mr.Programs) {
			t.Errorf("%v: bad baseline index %d", mr.Matrix, mr.BaselineIdx)
		}
		for _, p := range mr.Programs {
			if p.Measured <= 0 || p.Predicted <= 0 {
				t.Errorf("%v %v: non-positive times %v/%v",
					mr.Matrix, p.Program, p.Measured, p.Predicted)
			}
		}
	}
}

func TestResult1PlacementImpact(t *testing.T) {
	// Paper Result 1: AllReduce differs enormously across matrices.
	r := run416(t, cost.Ring)
	minBase, maxBase := r.Matrices[0].Baseline().Measured, r.Matrices[0].Baseline().Measured
	for _, mr := range r.Matrices {
		b := mr.Baseline().Measured
		if b < minBase {
			minBase = b
		}
		if b > maxBase {
			maxBase = b
		}
	}
	if maxBase/minBase < 100 {
		t.Errorf("placement impact = %.1f×, want > 100×", maxBase/minBase)
	}
}

func TestResult3WithinNodeAllReduceOptimal(t *testing.T) {
	// Paper Result 3: when the reduction axis fits in one node, the
	// single AllReduce is optimal (speedup 1).
	r := run416(t, cost.Ring)
	for _, mr := range r.Matrices {
		if mr.Matrix.String() == "[[1 4] [4 4]]" {
			if mr.BestMeasured() != mr.BaselineIdx {
				t.Errorf("expected AllReduce optimal for %v, got %v",
					mr.Matrix, mr.Programs[mr.BestMeasured()].Program)
			}
			if mr.Outperforming() != 0 {
				t.Errorf("programs outperform AllReduce within node: %d", mr.Outperforming())
			}
		}
	}
}

func TestResult5CrossNodeSynthesisWins(t *testing.T) {
	// Paper Result 5: cross-node placements admit synthesized programs
	// beating AllReduce (G2-style speedups in the 1.2–2.2 range).
	r := run416(t, cost.Ring)
	won := false
	for _, mr := range r.Matrices {
		if mr.Matrix.String() == "[[2 2] [2 8]]" {
			if s := mr.Speedup(); s < 1.2 || s > 2.5 {
				t.Errorf("speedup for %v = %.2f, want 1.2–2.5", mr.Matrix, s)
			} else {
				won = true
			}
			if mr.Outperforming() == 0 {
				t.Error("no outperforming programs for the cross-node matrix")
			}
		}
	}
	if !won {
		t.Error("cross-node matrix missing from sweep")
	}
}

func TestTopKHitSanity(t *testing.T) {
	r := run416(t, cost.Ring)
	// Top-K with K = total pairs is always a hit.
	if !r.TopKHit(len(r.Pairs())) {
		t.Error("TopKHit(all) = false")
	}
	// Monotonicity: a hit at k implies a hit at k+1.
	prev := false
	for k := 1; k <= 10; k++ {
		hit := r.TopKHit(k)
		if prev && !hit {
			t.Errorf("TopKHit not monotone at k=%d", k)
		}
		prev = hit
	}
}

func TestAccuracy(t *testing.T) {
	r1 := run416(t, cost.Ring)
	r2 := run416(t, cost.Tree)
	acc := Accuracy([]*Result{r1, r2}, []int{1, 10})
	for _, k := range []int{1, 10} {
		if acc[k] < 0 || acc[k] > 1 {
			t.Errorf("accuracy[%d] = %v out of range", k, acc[k])
		}
	}
	if acc[10] < acc[1] {
		t.Error("top-10 accuracy below top-1")
	}
	if len(Accuracy(nil, []int{1})) != 0 {
		t.Error("Accuracy(nil) should be empty")
	}
}

func TestMeasureBaseline(t *testing.T) {
	cfg := Config{Sys: topology.A100System(4), Axes: []int{4, 16}, ReduceAxes: []int{0}, Algo: cost.Ring}
	m := placement.MustMatrix([]int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}})
	pred, meas, err := MeasureBaseline(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 || meas <= 0 {
		t.Errorf("non-positive baseline: %v / %v", pred, meas)
	}
	if meas > 1 {
		t.Errorf("within-node baseline too slow: %v s", meas)
	}
}

func TestRunErrors(t *testing.T) {
	_, err := RunCtx(context.Background(), Config{Sys: topology.A100System(4), Axes: []int{3, 7}, ReduceAxes: []int{0}, Algo: cost.Ring})
	if err == nil {
		t.Error("invalid axes accepted")
	}
}

func TestPaperCases(t *testing.T) {
	cases := PaperCases(64, true)
	var oneAxis, twoAxis, threeAxis int
	for _, c := range cases {
		switch len(c.Axes) {
		case 1:
			oneAxis++
			if len(c.ReduceAxes) != 1 {
				t.Errorf("single-axis case has %d reductions", len(c.ReduceAxes))
			}
		case 2:
			twoAxis++
			if len(c.ReduceAxes) != 2 {
				t.Errorf("two-axis case has %d reductions", len(c.ReduceAxes))
			}
		case 3:
			threeAxis++
			if len(c.ReduceAxes) != 1 || len(c.ReduceAxes[0]) != 2 {
				t.Errorf("three-axis case reductions = %v", c.ReduceAxes)
			}
		}
	}
	if oneAxis != 1 || twoAxis != 5 || threeAxis != 4 {
		t.Errorf("case mix = %d/%d/%d, want 1/5/4", oneAxis, twoAxis, threeAxis)
	}
	if n := len(PaperCases(16, false)); n != 4 {
		t.Errorf("PaperCases(16) = %d cases, want 4", n)
	}
}

func TestPaperSuites(t *testing.T) {
	suites := PaperSuites()
	if len(suites) != 4 {
		t.Fatalf("suites = %d", len(suites))
	}
	names := map[string]bool{}
	for _, s := range suites {
		names[s.Sys.Name] = true
		if len(s.Cases) == 0 {
			t.Errorf("%s has no cases", s.Sys.Name)
		}
	}
	for _, want := range []string{"a100-2node", "a100-4node", "v100-2node", "v100-4node"} {
		if !names[want] {
			t.Errorf("missing suite %s", want)
		}
	}
}

func TestRunSuiteSmall(t *testing.T) {
	s := Suite{Sys: topology.V100System(2), Cases: []Case{
		{Axes: []int{4, 4}, ReduceAxes: [][]int{{0}, {1}}},
	}}
	rs, err := RunSuiteCtx(context.Background(), s, []cost.Algorithm{cost.Ring})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %d, want 2 (one per reduce axis)", len(rs))
	}
}

func TestBuildTable3(t *testing.T) {
	tb, err := BuildTable3(topology.V100System(2), [][]int{{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	md := tb.Markdown()
	if !strings.Contains(md, "Ring") || !strings.Contains(md, "[[") {
		t.Errorf("markdown missing expected content:\n%s", md)
	}
	tsv := tb.TSV()
	if !strings.Contains(tsv, "\t") {
		t.Error("TSV has no tabs")
	}
}

func TestBuildTable4And5(t *testing.T) {
	r := run416(t, cost.Ring)
	t4 := BuildTable4([]*Result{r})
	if len(t4.Rows) != 3 {
		t.Errorf("Table 4 rows = %d, want 3", len(t4.Rows))
	}
	if !strings.Contains(t4.Markdown(), "Speedup") {
		t.Error("Table 4 missing speedup column")
	}
	t5 := BuildTable5([]*Result{r})
	if len(t5.Rows) != 2 { // one system + total
		t.Errorf("Table 5 rows = %d, want 2", len(t5.Rows))
	}
}

func TestBuildFigure11(t *testing.T) {
	r := run416(t, cost.Ring)
	f := BuildFigure11(r)
	if len(f.Rows) != r.TotalPrograms() {
		t.Errorf("figure rows = %d, want %d", len(f.Rows), r.TotalPrograms())
	}
	// Rows must be sorted by measured time.
	prev := -1.0
	for _, row := range f.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad measured cell %q", row[3])
		}
		if v < prev-1e-9 {
			t.Error("figure rows not sorted by measured time")
		}
		prev = v
	}
}

func TestBuildAppendix(t *testing.T) {
	r := run416(t, cost.Ring)
	a := BuildAppendix([]*Result{r})
	if len(a.Rows) != 3 {
		t.Errorf("appendix rows = %d", len(a.Rows))
	}
}

func TestRunDeterministic(t *testing.T) {
	// The whole sweep — synthesis order, predictions, measurements — must
	// be bit-for-bit reproducible (noise is seeded from fingerprints).
	a := run416(t, cost.Ring)
	b := run416(t, cost.Ring)
	da, err := ToJSON([]*Result{a})
	if err != nil {
		t.Fatal(err)
	}
	db, err := ToJSON([]*Result{b})
	if err != nil {
		t.Fatal(err)
	}
	// Strip the wall-clock fields, which legitimately differ.
	ra, _ := FromJSON(da)
	rb, _ := FromJSON(db)
	for i := range ra {
		ra[i].SynthesisSecs, rb[i].SynthesisSecs = 0, 0
		ra[i].SimulationSecs, rb[i].SimulationSecs = 0, 0
		ra[i].MeasureSecs, rb[i].MeasureSecs = 0, 0
		for j := range ra[i].Matrices {
			ra[i].Matrices[j].SynthesisSecs = 0
			rb[i].Matrices[j].SynthesisSecs = 0
		}
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Error("sweep results are not deterministic")
	}
}

func TestNetsimOptionsPropagate(t *testing.T) {
	// A different emulator seed must change measurements but not
	// predictions.
	base, err := RunCtx(context.Background(), Config{Sys: topology.V100System(2), Axes: []int{4, 4},
		ReduceAxes: []int{1}, Algo: cost.Ring})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := RunCtx(context.Background(), Config{Sys: topology.V100System(2), Axes: []int{4, 4},
		ReduceAxes: []int{1}, Algo: cost.Ring,
		NetsimOpts: netsim.Options{Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for mi := range base.Matrices {
		for pi := range base.Matrices[mi].Programs {
			a := base.Matrices[mi].Programs[pi]
			b := seeded.Matrices[mi].Programs[pi]
			if a.Predicted != b.Predicted {
				t.Fatal("seed changed predictions")
			}
			if a.Measured != b.Measured {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("seed did not change any measurement")
	}
}
