package p2

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestPlanA100(t *testing.T) {
	plan, err := Plan(A100System(4), Request{Axes: []int{4, 16}, ReduceAxes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Strategies) < 9 { // 3 matrices × ≥3 programs
		t.Fatalf("strategies = %d", len(plan.Strategies))
	}
	best := plan.Best()
	// The best placement keeps the reduction axis inside a node, where
	// the plain AllReduce is optimal (paper Result 3).
	if got := best.Matrix.String(); got != "[[1 4] [4 4]]" {
		t.Errorf("best matrix = %s, want [[1 4] [4 4]]", got)
	}
	if best.Predicted <= 0 {
		t.Error("non-positive prediction")
	}
	// Ranking is ascending.
	for i := 1; i < len(plan.Strategies); i++ {
		if plan.Strategies[i-1].Predicted > plan.Strategies[i].Predicted {
			t.Fatal("strategies not sorted by prediction")
		}
	}
}

func TestPlanSingleMatrix(t *testing.T) {
	sys := A100System(4)
	m, err := ParseMatrix(sys, []int{4, 16}, "[[2 2] [2 8]]")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(sys, Request{Axes: []int{4, 16}, ReduceAxes: []int{0}, Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Strategies {
		if !s.Matrix.Equal(m) {
			t.Fatalf("strategy for unexpected matrix %v", s.Matrix)
		}
	}
	base := plan.BaselineFor(m)
	if base == nil {
		t.Fatal("baseline missing")
	}
	if plan.Best().Predicted >= base.Predicted {
		t.Error("cross-node plan should beat the AllReduce baseline")
	}
}

func TestStrategyMeasure(t *testing.T) {
	plan, err := Plan(V100System(2), Request{Axes: []int{4, 4}, ReduceAxes: []int{1}, Bytes: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Best()
	meas := s.Measure()
	if meas <= 0 {
		t.Errorf("measured %v", meas)
	}
	if s.Lowered() == nil || len(s.Lowered().Steps) == 0 {
		t.Error("lowered program missing")
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(A100System(2), Request{Axes: []int{3}, ReduceAxes: []int{0}}); err == nil {
		t.Error("bad axes accepted")
	}
	if _, err := Plan(A100System(2), Request{Axes: []int{32}, ReduceAxes: []int{7}}); err == nil {
		t.Error("bad reduce axis accepted")
	}
}

// TestReductionGroupLimit: a reduction group of more than synth.MaxUniverse
// devices — the product of the reduced axes — is refused by the one request
// resolution, so Plan, PlanJoint, the CLI and the daemon refuse it before
// any state is built (superpod:16x32 [4096] would start synthesis from
// about 8.6 GB of states). The largest groups under the limit resolve.
func TestReductionGroupLimit(t *testing.T) {
	sys := SuperPodSystem(16, 32)
	for _, tc := range []struct {
		axes, reduce []int
		refused      bool
	}{
		{[]int{4096}, []int{0}, true},
		{[]int{256, 16}, []int{0}, true},
		{[]int{16, 16, 16}, []int{0, 2}, true},
		{[]int{128, 32}, []int{0}, false},
		{[]int{32, 128}, []int{0}, false},
		{[]int{8, 16, 32}, []int{0, 1}, false},
	} {
		_, err := Request{Axes: tc.axes, ReduceAxes: tc.reduce}.Resolve(sys)
		if refused := err != nil; refused != tc.refused || refused && !strings.Contains(err.Error(), "synthesis limit of 128") {
			t.Errorf("axes %v reduce %v: %v, want refused=%v", tc.axes, tc.reduce, err, tc.refused)
		}
	}
	if _, err := Plan(sys, Request{Axes: []int{4096}, ReduceAxes: []int{0}}); err == nil || !strings.Contains(err.Error(), "synthesis limit") {
		t.Errorf("Plan of a 4096-device group: %v", err)
	}
	if _, err := PlanJoint(sys, []int{64, 64}, []Reduction{{ReduceAxes: []int{0}}, {ReduceAxes: []int{0, 1}}}); err == nil || !strings.Contains(err.Error(), "synthesis limit") {
		t.Errorf("PlanJoint with a 4096-device group: %v", err)
	}
}

// TestProgramSizeLimitMemory: planning memory follows the programs found,
// not the program-size limit asked for. Every hierarchy of superpod:4x8
// [4 8 8] has three levels or fewer, so its longest program has five steps
// and a limit of 1<<16 plans exactly what the default does, with at most
// twice the allocation (a searching run's per-step scratch was once sized
// to the limit, per placement).
func TestProgramSizeLimitMemory(t *testing.T) {
	sys := SuperPodSystem(4, 8)
	plan := func(maxSize int) (string, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Plan(sys, Request{Axes: []int{4, 8, 8}, ReduceAxes: []int{0}, Algos: ExtendedAlgorithms, MaxProgramSize: maxSize, Parallelism: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, s := range res.Strategies {
			fmt.Fprintln(&b, s)
		}
		return b.String(), after.TotalAlloc - before.TotalAlloc
	}
	small, smallBytes := plan(5)
	large, largeBytes := plan(1 << 16)
	if small != large {
		t.Fatal("size limit 1<<16 ranks differently from 5")
	}
	if largeBytes > 2*smallBytes {
		t.Errorf("size limit 1<<16 allocated %d bytes, 5 allocated %d: want at most twice", largeBytes, smallBytes)
	}
}

// TestParseSystemRefusesTooManyDevices: a preset shape of 2³² or more
// devices is an error naming the system, not a system whose device count
// wrapped (superpod:2³²x2³² used to parse with 0 devices) or one too large
// to route exactly (a100 with 2²⁹ nodes used to parse with 8.6 G devices).
// The largest shapes below the limit still parse.
func TestParseSystemRefusesTooManyDevices(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		want  string
	}{
		{"superpod:4294967296x4294967296", 0, "superpod-4294967296x4294967296"},
		{"superpod:65536x8192", 0, "superpod-65536x8192"},
		{"a100", 1 << 29, "a100-536870912node"},
		{"v100", 1 << 29, "v100-536870912node"},
	} {
		if sys, err := ParseSystem(tc.name, tc.nodes); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "2^32") {
			t.Errorf("ParseSystem(%q, %d) = %v, %v; want a 2^32 error naming %s", tc.name, tc.nodes, sys, err, tc.want)
		}
	}
	for _, tc := range []struct {
		name  string
		nodes int
	}{{"superpod:65535x8192", 0}, {"a100", 1<<28 - 1}} {
		if _, err := ParseSystem(tc.name, tc.nodes); err != nil {
			t.Errorf("ParseSystem(%q, %d): %v", tc.name, tc.nodes, err)
		}
	}
}

// TestInvalidSimOptionsRefused: every emulator option must be finite and
// non-negative. The planning entry points refuse a bad one before planning
// starts and a direct MeasureWith panics naming the field. Unchecked, a
// NaN launch overhead made every measured time NaN (an undefined re-rank
// order), a negative one made times negative, and a NaN noise fraction or
// an infinite overhead deadlocked the event loop inside a measuring
// goroutine, killing the process.
func TestInvalidSimOptionsRefused(t *testing.T) {
	sys := Fig2aSystem()
	plan, err := Plan(sys, Request{Axes: []int{4, 4}, ReduceAxes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name, field string
		opts        SimOptions
	}{
		{"NaN launch overhead", "LaunchOverhead", SimOptions{LaunchOverhead: math.NaN()}},
		{"negative launch overhead", "LaunchOverhead", SimOptions{LaunchOverhead: -1}},
		{"infinite launch overhead", "LaunchOverhead", SimOptions{LaunchOverhead: math.Inf(1)}},
		{"NaN noise", "NoiseFrac", SimOptions{NoiseFrac: math.NaN()}},
		{"negative noise", "NoiseFrac", SimOptions{NoiseFrac: -0.5}},
	} {
		req := Request{Axes: []int{4, 4}, ReduceAxes: []int{0}, Measure: MeasureRankAll, SimOpts: r.opts}
		if _, err := Plan(sys, req); err == nil || !strings.Contains(err.Error(), r.field) {
			t.Errorf("%s: Plan error = %v, want one naming %s", r.name, err, r.field)
		}
		_, err := PlanJointCtx(context.Background(), sys, []int{4, 4}, []Reduction{{ReduceAxes: []int{0}}},
			JointOptions{Measure: MeasureRankAll, SimOpts: r.opts})
		if err == nil || !strings.Contains(err.Error(), r.field) {
			t.Errorf("%s: PlanJointCtx error = %v, want one naming %s", r.name, err, r.field)
		}
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), r.field) {
					t.Errorf("%s: MeasureWith panic = %v, want one naming %s", r.name, p, r.field)
				}
			}()
			plan.Best().MeasureWith(r.opts)
		}()
	}
}

func TestParseProgram(t *testing.T) {
	p, err := ParseProgram("(0, InsideGroup, AllReduce)")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 {
		t.Fatalf("parsed %d instructions", len(p))
	}
	if _, err := ParseProgram("nonsense"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPlacements(t *testing.T) {
	ms, err := Placements(A100System(4), []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Errorf("placements = %d, want 3", len(ms))
	}
}

func TestStrategyString(t *testing.T) {
	plan, err := Plan(V100System(2), Request{Axes: []int{16}, ReduceAxes: []int{0}, Bytes: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Best().String()
	if !strings.Contains(s, "predicted") {
		t.Errorf("String = %q", s)
	}
}

func ExamplePlan() {
	// Plan gradient reduction for data parallelism (axis 0, size 4)
	// combined with 16-way parameter sharding on a 4-node A100 system.
	plan, err := Plan(A100System(4), Request{
		Axes:       []int{4, 16},
		ReduceAxes: []int{0},
	})
	if err != nil {
		panic(err)
	}
	best := plan.Best()
	fmt.Println("placement:", best.Matrix)
	fmt.Println("program:  ", best.Program)
	// Output:
	// placement: [[1 4] [4 4]]
	// program:   (0, InsideGroup, AllReduce)
}

func TestStrategyTrace(t *testing.T) {
	plan, err := Plan(V100System(2), Request{Axes: []int{4, 4}, ReduceAxes: []int{1}, Bytes: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	total, events := plan.Best().Trace()
	if total <= 0 || len(events) == 0 {
		t.Fatalf("Trace: total=%v events=%d", total, len(events))
	}
	for _, ev := range events {
		if ev.End > total+1e-9 {
			t.Errorf("event ends (%v) after total (%v)", ev.End, total)
		}
	}
}

func TestStrategyPipelined(t *testing.T) {
	plan, err := Plan(A100System(4), Request{Axes: []int{4, 16}, ReduceAxes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	// Find the RS-AR-AG strategy for the cross-node matrix.
	for _, s := range plan.Strategies {
		if s.Matrix.String() != "[[2 2] [2 8]]" || len(s.Lowered().Steps) != 3 {
			continue
		}
		one := s.Pipelined(1)
		b, best := s.OptimalBuckets(32)
		if b > 1 && best >= one {
			t.Errorf("optimal buckets %d with time %v not better than %v", b, best, one)
		}
		return
	}
	t.Skip("no 3-step strategy found for the cross-node matrix")
}
