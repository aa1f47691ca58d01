package eval

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"p2/internal/cost"
	"p2/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files")

// v100AutoSuite is the small deterministic suite the golden test pins:
// the 2-node V100 system (whose cross-PCIe-domain throttling the analytic
// model deliberately ignores, so the analytic and measured argmins
// genuinely disagree on one of the two sweeps), both reduction axes of
// [4 4].
func v100AutoSuite(t *testing.T) []*Result {
	t.Helper()
	s := Suite{Sys: topology.V100System(2), Cases: []Case{
		{Axes: []int{4, 4}, ReduceAxes: [][]int{{0}, {1}}},
	}}
	rs, err := RunSuiteCtx(context.Background(), s, cost.ExtendedAlgorithms)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("auto suite ran %d sweeps, want 2", len(rs))
	}
	return rs
}

// TestAutoSuiteGoldenTable pins the rendered accuracy table — including
// the new Algo, Pred best, Meas best and Disagree columns — for the
// 2-node V100 auto suite. Everything in the pipeline is deterministic, so the
// table is byte-stable; regenerate with `go test -run AutoSuiteGolden
// -update ./internal/eval/`.
func TestAutoSuiteGoldenTable(t *testing.T) {
	rs := v100AutoSuite(t)
	got := BuildTable5(rs).Markdown()
	golden := filepath.Join("testdata", "autosuite_v100.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("auto-suite table drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAutoSuiteJSONRoundTrip: the export round-trips, covers every sweep,
// and its aggregate quantities agree with the per-sweep entries.
func TestAutoSuiteJSONRoundTrip(t *testing.T) {
	rs := v100AutoSuite(t)
	data, err := AutoSuiteToJSON(rs)
	if err != nil {
		t.Fatal(err)
	}
	back := decodeJSON[AutoSuiteJSON](t, data)
	if len(back) != 1 {
		t.Fatalf("decoded %d systems, want 1", len(back))
	}
	env := back[0]
	if env.System != "v100-2node" {
		t.Errorf("system = %q, want v100-2node", env.System)
	}
	if env.DisagreementRate == 0 {
		t.Error("golden suite lost its disagreement (rate = 0); the Disagree column is no longer exercised")
	}
	if len(env.Sweeps) != len(rs) {
		t.Fatalf("sweeps = %d, want %d", len(env.Sweeps), len(rs))
	}
	disagree := 0
	for i, sw := range env.Sweeps {
		if sw.Config == "" || sw.Programs <= 0 {
			t.Errorf("sweep %d missing metadata: %+v", i, sw)
		}
		if sw.PredictedBest.Program == "" || sw.MeasuredBest.Program == "" {
			t.Errorf("sweep %d missing best candidates: %+v", i, sw)
		}
		samePair := sw.PredictedBest.Matrix == sw.MeasuredBest.Matrix &&
			sw.PredictedBest.Program == sw.MeasuredBest.Program &&
			sw.PredictedBest.Algorithm == sw.MeasuredBest.Algorithm
		if sw.Disagree == samePair {
			// Disagree must reflect the exported pair identity. (Distinct
			// pairs can share a rendering only if matrix+program+algo all
			// collide, which the enumeration forbids.)
			t.Errorf("sweep %d: disagree=%v but predicted/measured pairs render %v", i, sw.Disagree, samePair)
		}
		if sw.Disagree {
			disagree++
		}
		if sw.MeasuredBest.Measured > sw.PredictedBest.Measured {
			t.Errorf("sweep %d: measured best (%g s) slower than predicted pick (%g s)",
				i, sw.MeasuredBest.Measured, sw.PredictedBest.Measured)
		}
	}
	wantRate := float64(disagree) / float64(len(env.Sweeps))
	if env.DisagreementRate != wantRate {
		t.Errorf("disagreement rate %g, want %g", env.DisagreementRate, wantRate)
	}
	if top1, ok := env.TopKAccuracy[1]; !ok {
		t.Error("top-1 accuracy missing from export")
	} else if got := 1 - env.DisagreementRate; top1 != got {
		t.Errorf("top-1 accuracy %g inconsistent with disagreement rate (want %g)", top1, got)
	}
}

// TestDisagreementAgainstTopKHit: Disagreement is exactly the complement
// of the paper's top-1 accuracy criterion.
func TestDisagreementAgainstTopKHit(t *testing.T) {
	for _, r := range v100AutoSuite(t) {
		if r.Disagreement() != r.TopKHit(1) {
			continue
		}
		t.Errorf("%s: Disagreement()=%v but TopKHit(1)=%v", r.Config, r.Disagreement(), r.TopKHit(1))
	}
}
