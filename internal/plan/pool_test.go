package plan

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"p2/internal/cost"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/topology"
)

// TestPooledWorkerStateAcrossSystems: worker states go from run to run
// through the pool whatever system they last scored. A 4 096-device top-5,
// a 16-device full ranking and the 4 096-device top-5 again, planned one
// after another on one Planner, each rank as a fresh Planner ranks them,
// and every candidate lowers as lower.Lower does.
func TestPooledWorkerStateAcrossSystems(t *testing.T) {
	type request struct {
		sys  *topology.System
		axes []int
		topK int
	}
	big := request{topology.SuperPodSystem(16, 32), []int{64, 64}, 5}
	small := request{topology.Fig2aSystem(), []int{4, 4}, 0}
	red := []int{0}
	for _, par := range []int{1, 4} {
		p := New()
		for i, r := range []request{big, small, big} {
			stream := func(yield func(*placement.Matrix) bool) error {
				return placement.Iterate(r.sys.Hierarchy(), r.axes, yield)
			}
			model := &cost.Model{Sys: r.sys, Algo: cost.Ring, Bytes: cost.DefaultPayload(r.sys)}
			opts := Options{Parallelism: par, TopK: r.topK}
			got, _, err := p.RunStreamCtx(context.Background(), stream, red, model, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := New().RunStreamCtx(context.Background(), stream, red, model, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || rankString(got) != rankString(want) {
				t.Fatalf("parallelism %d, run %d (%s %v): ranking\n%s\nwant\n%s", par, i, r.sys.Name, r.axes, rankString(got), rankString(want))
			}
			for _, c := range got {
				h := hierarchy.MustBuild(hierarchy.KindReductionAxes, c.Matrix, red, hierarchy.Options{})
				lp, err := lower.Lower(c.Program, h)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(c.Lowered(), lp) {
					t.Fatalf("parallelism %d, run %d, %v %v: Lowered differs from lower.Lower", par, i, c.Matrix, c.Program)
				}
			}
		}
	}
}

// TestPanickedWorkerStateNotPooled: a state whose item panicked may be
// dirty, so its worker drops it, and no later run receives it.
func TestPanickedWorkerStateNotPooled(t *testing.T) {
	matrices, _, _ := testSetup(t)
	less := func(a, b int) bool { return a < b }
	pred := func(x int) float64 { return float64(x) }
	var dirty *workerState
	_, _, err := fanOut[int](context.Background(), Options{Parallelism: 1}, streamOf(matrices[:1]),
		func(ws *workerState, i int, m *placement.Matrix, emit func(int)) error {
			dirty = ws
			ws.ms.flat = append(ws.ms.flat, -1)
			panic("injected crash on a dirty state")
		}, less, pred, newThreshold())
	if pe := (*PanicError)(nil); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	for run := 0; run < 20; run++ {
		_, _, err := fanOut[int](context.Background(), Options{Parallelism: 4}, streamOf(matrices),
			func(ws *workerState, i int, m *placement.Matrix, emit func(int)) error {
				if ws == dirty {
					t.Errorf("run %d, item %d: got the state whose item panicked", run, i)
				}
				return nil
			}, less, pred, newThreshold())
		if err != nil {
			t.Fatal(err)
		}
	}
}
