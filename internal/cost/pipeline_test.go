package cost

import (
	"math"
	"testing"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/synth"
	"p2/internal/topology"
)

func TestPipelinedTimeOneBucketEqualsProgramTime(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		dsl.Program{
			{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
			{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
			{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllGather},
		})
	m := &Model{Sys: topology.A100System(4), Algo: Ring, Bytes: PayloadBytes(4)}
	if got, want := m.PipelinedTimeSteps(lp, 1, nil), m.ProgramTime(lp); math.Abs(got-want) > 1e-12*want {
		t.Errorf("PipelinedTime(1) = %v, ProgramTime = %v", got, want)
	}
}

func TestPipeliningHelpsMultiStepPrograms(t *testing.T) {
	// The RS-AR-AG pipeline has a dominant middle stage; overlapping
	// buckets hides the fast local stages behind it.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		dsl.Program{
			{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
			{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
			{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllGather},
		})
	m := &Model{Sys: topology.A100System(4), Algo: Ring, Bytes: PayloadBytes(4)}
	b, tBest := OptimalBucketsSteps(m, lp, 64, nil)
	if b <= 1 {
		t.Fatalf("OptimalBuckets picked %d", b)
	}
	if one := m.PipelinedTimeSteps(lp, 1, nil); tBest >= one {
		t.Errorf("pipelined %v not better than unbucketed %v", tBest, one)
	}
}

func TestTooManyBucketsHurts(t *testing.T) {
	// Latency is paid per bucket: a huge bucket count must eventually be
	// worse than the optimum.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0},
		synth.BaselineAllReduce())
	m := &Model{Sys: topology.A100System(4), Algo: Ring, Bytes: 1e8}
	_, best := OptimalBucketsSteps(m, lp, 256, nil)
	if worst := m.PipelinedTimeSteps(lp, 1<<20, nil); worst <= best {
		t.Errorf("2^20 buckets (%v) should be worse than optimal (%v)", worst, best)
	}
}

func TestPipelinedSingleStepNoGain(t *testing.T) {
	// A one-step program cannot overlap anything: B buckets only add
	// latency, so B=1 is optimal.
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	m := &Model{Sys: topology.A100System(4), Algo: Ring, Bytes: PayloadBytes(4)}
	b, _ := OptimalBucketsSteps(m, lp, 32, nil)
	if b != 1 {
		t.Errorf("single-step optimal buckets = %d, want 1", b)
	}
}

func TestPipelinedTimePanicsOnZeroBuckets(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	m := &Model{Sys: topology.A100System(4), Algo: Ring, Bytes: 1e9}
	defer func() {
		if recover() == nil {
			t.Error("zero buckets did not panic")
		}
	}()
	m.PipelinedTimeSteps(lp, 0, nil)
}

func TestOptimalBucketsClampsMax(t *testing.T) {
	lp := lowerFor(t, []int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0},
		synth.BaselineAllReduce())
	m := &Model{Sys: topology.A100System(4), Algo: Ring, Bytes: 1e9}
	b, _ := OptimalBucketsSteps(m, lp, 0, nil)
	if b != 1 {
		t.Errorf("clamped max returned %d", b)
	}
}
