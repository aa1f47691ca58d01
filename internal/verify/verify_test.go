package verify

import (
	"strings"
	"testing"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
)

func build(t *testing.T, hier, axes []int, rows [][]int, red []int) (*placement.Matrix, *hierarchy.Hierarchy) {
	t.Helper()
	m, err := placement.NewMatrix(hier, axes, rows)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red, hierarchy.Options{Collapse: len(red) > 1})
	if err != nil {
		t.Fatal(err)
	}
	return m, h
}

func TestBaselineAllReduceComputesSums(t *testing.T) {
	m, h := build(t, []int{1, 2, 2, 4}, []int{4, 4}, [][]int{{1, 1, 2, 2}, {1, 2, 1, 2}}, []int{1})
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(lp, m, []int{1}, 3); err != nil {
		t.Error(err)
	}
}

// TestEverySynthesizedProgramComputesSums is the pipeline's strongest
// end-to-end guarantee: every program the synthesizer emits, for several
// placements and reduction requests, moves concrete numbers to exactly the
// all-reduce result.
func TestEverySynthesizedProgramComputesSums(t *testing.T) {
	cases := []struct {
		hier, axes []int
		rows       [][]int
		red        []int
	}{
		{[]int{1, 2, 2, 4}, []int{4, 4}, [][]int{{1, 1, 2, 2}, {1, 2, 1, 2}}, []int{1}},
		{[]int{1, 2, 2, 4}, []int{4, 4}, [][]int{{1, 2, 2, 1}, {1, 1, 1, 4}}, []int{1}},
		{[]int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0}},
		{[]int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}}, []int{0}},
		{[]int{2, 8}, []int{4, 4}, [][]int{{2, 2}, {1, 4}}, []int{1}},
		{[]int{4, 16}, []int{16, 2, 2}, [][]int{{2, 8}, {2, 1}, {1, 2}}, []int{0, 2}},
	}
	for _, c := range cases {
		m, h := build(t, c.hier, c.axes, c.rows, c.red)
		res := synth.Synthesize(h, synth.Options{})
		if len(res.Programs) == 0 {
			t.Fatalf("%v: no programs", m)
		}
		for _, p := range res.Programs {
			lp, err := lower.Lower(p, h)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			if err := Check(lp, m, c.red, 2); err != nil {
				t.Errorf("matrix %v program %v: %v", m, p, err)
			}
		}
	}
}

func TestCheckRejectsWrongReduction(t *testing.T) {
	// A program implementing reduction over axis 1 must fail verification
	// against axis 0.
	m, h := build(t, []int{1, 2, 2, 4}, []int{4, 4}, [][]int{{1, 1, 2, 2}, {1, 2, 1, 2}}, []int{1})
	lp, err := lower.Lower(synth.BaselineAllReduce(), h)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(lp, m, []int{0}, 2); err == nil {
		t.Error("verification against the wrong axis passed")
	}
}

func TestCheckRejectsTruncatedProgram(t *testing.T) {
	m, h := build(t, []int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}}, []int{0})
	full := dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
		{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllGather},
	}
	lp, err := lower.Lower(full, h)
	if err != nil {
		t.Fatal(err)
	}
	truncated := *lp
	truncated.Steps = truncated.Steps[:2]
	if err := Check(&truncated, m, []int{0}, 2); err == nil {
		t.Error("truncated program verified")
	}
}

func TestMachineStepMismatchedChunking(t *testing.T) {
	m := NewMachine(4, 4, 2)
	err := m.Step(lower.Step{Op: collective.AllReduce, Groups: [][]int{{0, 1}}, Rows: 8, RowsOut: 8, K: 8})
	if err == nil || !strings.Contains(err.Error(), "chunking") {
		t.Errorf("got %v", err)
	}
}

func TestMachineReduceScatterIndivisible(t *testing.T) {
	m := NewMachine(3, 4, 1)
	for d := 0; d < 3; d++ {
		d := d
		m.Fill(d, func(c, i int) float64 { return float64(d + 1) })
	}
	err := m.Step(lower.Step{Op: collective.ReduceScatter, Groups: [][]int{{0, 1, 2}}, Rows: 4, RowsOut: 1, K: 4})
	if err == nil {
		t.Error("indivisible scatter accepted")
	}
}

func TestMachineFillAndValue(t *testing.T) {
	m := NewMachine(2, 3, 4)
	m.Fill(1, func(c, i int) float64 { return float64(c*10 + i) })
	if got := m.Value(1, 2, 3); got != 23 {
		t.Errorf("Value = %v", got)
	}
	if got := m.Value(0, 2, 3); got != 0 {
		t.Errorf("unfilled device value = %v", got)
	}
	if len(m.bufs) != 2 {
		t.Errorf("NumDevices = %d", len(m.bufs))
	}
}

func TestNewMachinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMachine(0,0,0) did not panic")
		}
	}()
	NewMachine(0, 0, 0)
}

func TestReduceThenBroadcastRoundTrip(t *testing.T) {
	// Reduce to root then Broadcast restores equality with AllReduce.
	m := NewMachine(4, 4, 2)
	for d := 0; d < 4; d++ {
		d := d
		m.Fill(d, func(c, i int) float64 { return float64(d + 1) })
	}
	g := [][]int{{0, 1, 2, 3}}
	if err := m.Step(lower.Step{Op: collective.Reduce, Groups: g, Rows: 4, RowsOut: 4, K: 4}); err != nil {
		t.Fatal(err)
	}
	// Non-roots are cleared.
	if m.Value(1, 0, 0) != 0 {
		t.Error("non-root not cleared by Reduce")
	}
	if m.Value(0, 0, 0) != 10 {
		t.Errorf("root sum = %v, want 10", m.Value(0, 0, 0))
	}
	if err := m.Step(lower.Step{Op: collective.Broadcast, Groups: g, Rows: 4, RowsOut: 4, K: 4}); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		if m.Value(d, 3, 1) != 10 {
			t.Errorf("device %d = %v after broadcast", d, m.Value(d, 3, 1))
		}
	}
}
