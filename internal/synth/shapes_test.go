package synth

import (
	"fmt"
	"reflect"
	"testing"

	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/topology"
)

// TestSynthShapesMatchAnnotate: the lowering skeleton the synthesizer reads
// off its own DAG walk must equal, program by program and step by step,
// what lower.Annotate derives by re-running the universe semantics. The
// planning engine lowers through Result.Steps and the serial reference
// through Annotate, so this is the per-signature half of their byte
// equality. Covered: every distinct reduction hierarchy of the root
// determinism-matrix rows (non-power-of-two superpod:3x4 and the
// multi-axis [4 4 4] r[0 2] included), Collapse on and off, MaxSize 3
// and 5, memoized and NoMemo walks — suffix lists are shared through the
// memo, so the NoMemo walk checks that sharing never changes a shape.
func TestSynthShapesMatchAnnotate(t *testing.T) {
	rows := []struct {
		sys  *topology.System
		axes []int
		red  []int
	}{
		{topology.Fig2aSystem(), []int{4, 4}, []int{0}},
		{topology.Fig2aSystem(), []int{2, 2, 4}, []int{0, 2}},
		{topology.A100System(4), []int{4, 16}, []int{0}},
		{topology.A100System(4), []int{16, 2, 2}, []int{0, 2}},
		{topology.A100System(4), []int{4, 4, 4}, []int{0, 2}},
		{topology.SuperPodSystem(2, 4), []int{8, 8}, []int{0}},
		{topology.SuperPodSystem(3, 4), []int{12, 8}, []int{0}},
	}
	seen := map[string]bool{}
	programs := 0
	for _, row := range rows {
		matrices, err := placement.Enumerate(row.sys.Hierarchy(), row.axes)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matrices {
			for _, collapse := range []bool{false, true} {
				h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, row.red, hierarchy.Options{Collapse: collapse})
				if err != nil {
					t.Fatal(err)
				}
				if seen[h.Signature()] {
					continue
				}
				seen[h.Signature()] = true
				for _, opts := range []Options{{MaxSize: 3}, {MaxSize: 3, NoMemo: true}, {MaxSize: 5}} {
					name := fmt.Sprintf("%s %v r%v %v collapse=%v %+v", row.sys.Name, row.axes, row.red, h, collapse, opts)
					res := Synthesize(h, opts)
					if len(res.StepIDs) != len(res.Programs) {
						t.Fatalf("%s: %d step lists for %d programs", name, len(res.StepIDs), len(res.Programs))
					}
					checkStepTable(t, name, res)
					for i, p := range res.Programs {
						want, err := lower.Annotate(p, h)
						if err != nil {
							t.Fatalf("%s: %v: %v", name, p, err)
						}
						if !reflect.DeepEqual(shapesOf(res, i), want) {
							t.Errorf("%s: %v: shapes %v, Annotate derives %v", name, p, shapesOf(res, i), want)
						}
						programs++
					}
				}
			}
		}
	}
	if len(seen) < 10 || programs == 0 {
		t.Fatalf("test is vacuous: %d signatures, %d programs", len(seen), programs)
	}
}

// shapesOf reads the shapes of Programs[i] off the step table.
func shapesOf(res *Result, i int) []dsl.Shape {
	out := make([]dsl.Shape, len(res.StepIDs[i]))
	for s, id := range res.StepIDs[i] {
		out[s] = res.Steps[id].Shape
	}
	return out
}

// checkStepTable: every program's step ids name its own instructions, and
// the step table holds each (instruction, shape) pair once and the
// instruction table each instruction once. Steps on dead-end edges are
// numbered too, so not every entry is some program's.
func checkStepTable(t *testing.T, name string, res *Result) {
	t.Helper()
	steps, instrs := map[Step]bool{}, map[dsl.Instruction]bool{}
	for _, st := range res.Steps {
		if steps[st] {
			t.Fatalf("%s: step %+v numbered twice", name, st)
		}
		steps[st] = true
	}
	for _, in := range res.Instructions {
		if instrs[in] {
			t.Fatalf("%s: instruction %v numbered twice", name, in)
		}
		instrs[in] = true
	}
	for i, p := range res.Programs {
		if len(res.StepIDs[i]) != len(p) {
			t.Fatalf("%s: %v has %d step ids", name, p, len(res.StepIDs[i]))
		}
		for s, id := range res.StepIDs[i] {
			if in := res.Instructions[res.Steps[id].Instr]; in != p[s] {
				t.Fatalf("%s: %v step %d is %v, its id %d names %v", name, p, s, p[s], id, in)
			}
		}
	}
}
