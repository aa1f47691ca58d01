package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2/internal/cost"
	"p2/internal/netsim"
	"p2/internal/topology"
)

// pinnedConfigs are the sweeps TestRunPinned records: Table 4 G under every
// algorithm mode, both Figure 11 panels (11b with a collapsed two-axis
// reduction), the cross-domain V100 system under a non-default emulator
// seed, and a non-power-of-two superpod under the per-step search.
func pinnedConfigs() []Config {
	a100, v100 := topology.A100System(4), topology.V100System(4)
	return []Config{
		{Sys: a100, Axes: []int{4, 16}, ReduceAxes: []int{0}, Algos: []cost.Algorithm{cost.Ring}},
		{Sys: a100, Axes: []int{4, 16}, ReduceAxes: []int{0}, Algos: []cost.Algorithm{cost.Tree}},
		{Sys: a100, Axes: []int{4, 16}, ReduceAxes: []int{0}, Algos: cost.ExtendedAlgorithms},
		{Sys: v100, Axes: []int{2, 16}, ReduceAxes: []int{1}, Algos: []cost.Algorithm{cost.Ring}},
		{Sys: a100, Axes: []int{4, 2, 8}, ReduceAxes: []int{0, 2}, Algos: []cost.Algorithm{cost.Tree}},
		{Sys: topology.V100System(2), Axes: []int{4, 4}, ReduceAxes: []int{1}, Algos: []cost.Algorithm{cost.Ring},
			NetsimOpts: netsim.Options{Seed: 99}},
		{Sys: topology.SuperPodSystem(3, 2), Axes: []int{6, 8}, ReduceAxes: []int{0}, Algos: cost.ExtendedAlgorithms},
	}
}

// pinnedRecord renders a sweep as the golden records it: per matrix the
// baseline index and program count, per program the float bits of both
// times and the algorithm assignment, in (matrix, program) order.
func pinnedRecord(cfg Config, r *Result) string {
	var b strings.Builder
	if cfg.NetsimOpts.Seed != 0 {
		fmt.Fprintf(&b, "config %s seed=%d\n", cfg, cfg.NetsimOpts.Seed)
	} else {
		fmt.Fprintf(&b, "config %s\n", cfg)
	}
	for mi, mr := range r.Matrices {
		fmt.Fprintf(&b, "matrix %d %s baseline=%d programs=%d\n", mi, mr.Matrix, mr.BaselineIdx, len(mr.Programs))
		for pi, p := range mr.Programs {
			fmt.Fprintf(&b, "%d %016x %016x %s %v\n", pi,
				math.Float64bits(p.Predicted), math.Float64bits(p.Measured), p.Algo, p.StepAlgos)
		}
	}
	return b.String()
}

// TestRunPinned holds every predicted and measured time of the pinned
// sweeps to the bits recorded at commit 5ceff70, when RunCtx was still its
// own serial planner (synthesize per matrix, lower.Lower, cost.Model,
// one emulator run per program). Regenerate only for a deliberate model
// or emulator change: `go test ./internal/eval/ -run RunPinned -update`.
func TestRunPinned(t *testing.T) {
	golden := filepath.Join("testdata", "pinned.golden")
	var got strings.Builder
	for _, cfg := range pinnedConfigs() {
		r, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		got.WriteString(pinnedRecord(cfg, r))
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d drifted from the golden:\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("recorded %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}

// TestRunCtxCancelled: a sweep is all-or-nothing, so a cancelled or expired
// context yields the context error and no result — never a partial sweep.
func TestRunCtxCancelled(t *testing.T) {
	cfg := Config{Sys: topology.A100System(4), Axes: []int{4, 16}, ReduceAxes: []int{0}, Algos: []cost.Algorithm{cost.Ring}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"cancelled", cancelled, context.Canceled},
		{"expired", expired, context.DeadlineExceeded},
	} {
		r, err := RunCtx(tc.ctx, cfg)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if r != nil {
			t.Errorf("%s: returned a %d-matrix result alongside the error", tc.name, len(r.Matrices))
		}
	}
	// A deadline landing mid-sweep: either the sweep beat it and is whole,
	// or it is discarded.
	mid, cancelMid := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancelMid()
	big := Config{Sys: topology.A100System(4), Axes: []int{4, 2, 8}, ReduceAxes: []int{0, 2}, Algos: cost.ExtendedAlgorithms}
	r, err := RunCtx(mid, big)
	switch {
	case err == nil:
		if r == nil || len(r.Matrices) == 0 {
			t.Error("mid-sweep deadline: nil error without a result")
		}
	case !errors.Is(err, context.DeadlineExceeded):
		t.Errorf("mid-sweep deadline: err = %v", err)
	case r != nil:
		t.Errorf("mid-sweep deadline: returned a %d-matrix partial sweep", len(r.Matrices))
	}
}
