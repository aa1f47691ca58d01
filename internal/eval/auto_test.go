package eval

import (
	"context"
	"strings"
	"testing"

	"p2/internal/cost"
	"p2/internal/topology"
)

// TestAutoComparisonBeatsFixedRing is the acceptance check for the
// algorithm search: on the paper's A100 4-node [4 16] sweep, at least one
// matrix's auto (per-step searched) best strictly beats the fixed-Ring
// best on the emulator.
func TestAutoComparisonBeatsFixedRing(t *testing.T) {
	cfg := Config{Sys: topology.A100System(4), Axes: []int{4, 16}, ReduceAxes: []int{0}}
	ring, tree, auto, err := RunAutoComparisonCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.Matrices) != len(ring.Matrices) || len(auto.Matrices) != len(tree.Matrices) {
		t.Fatalf("sweeps disagree on matrix count: %d/%d/%d",
			len(ring.Matrices), len(tree.Matrices), len(auto.Matrices))
	}
	wins := 0
	for mi, amr := range auto.Matrices {
		rmr := ring.Matrices[mi]
		aBest := amr.Programs[amr.BestMeasured()].Measured
		rBest := rmr.Programs[rmr.BestMeasured()].Measured
		if aBest < rBest {
			wins++
		}
	}
	if wins == 0 {
		t.Error("auto search never beat fixed Ring on a100-4 [4 16]; expected ≥ 1 matrix")
	}
	table := BuildAutoComparison(ring, tree, auto)
	if len(table.Rows) != len(auto.Matrices) {
		t.Errorf("comparison table has %d rows for %d matrices", len(table.Rows), len(auto.Matrices))
	}
}

// TestAutoPredictionNeverWorseThanFixed: the per-step minimum includes
// every pinned algorithm, so the auto predicted time is a lower bound of
// each fixed sweep's prediction, program by program.
func TestAutoPredictionNeverWorseThanFixed(t *testing.T) {
	base := Config{Sys: topology.A100System(2), Axes: []int{2, 16}, ReduceAxes: []int{0}}
	autoCfg := base
	autoCfg.Algos = cost.ExtendedAlgorithms
	auto, err := RunCtx(context.Background(), autoCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range cost.ExtendedAlgorithms {
		fixedCfg := base
		fixedCfg.Algo = algo
		fixed, err := RunCtx(context.Background(), fixedCfg)
		if err != nil {
			t.Fatal(err)
		}
		for mi, amr := range auto.Matrices {
			for pi, ap := range amr.Programs {
				if fp := fixed.Matrices[mi].Programs[pi]; ap.Predicted > fp.Predicted {
					t.Fatalf("auto predicted %v > fixed-%v %v for %v / %v",
						ap.Predicted, algo, fp.Predicted, amr.Matrix, ap.Program)
				}
			}
		}
	}
}

// TestAutoLabelsAndJSON: auto configs label themselves "auto" and carry
// per-program algorithm assignments through the JSON projection.
func TestAutoLabelsAndJSON(t *testing.T) {
	cfg := Config{Sys: topology.A100System(2), Axes: []int{2, 16}, ReduceAxes: []int{0},
		Algos: cost.ExtendedAlgorithms}
	if got := cfg.String(); !strings.HasSuffix(got, "/auto") {
		t.Errorf("auto config String = %q, want /auto suffix", got)
	}
	r, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ToJSON([]*Result{r})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed[0].Algorithm != "auto" {
		t.Errorf("JSON algorithm = %q, want auto", parsed[0].Algorithm)
	}
	for _, mj := range parsed[0].Matrices {
		for _, pj := range mj.Programs {
			if pj.Algorithm == "" {
				t.Fatalf("program %q missing algorithm assignment in JSON", pj.Program)
			}
		}
	}
}
