// Package lower translates synthesized reduction programs from the
// synthesis-hierarchy universe to sequences of physical collective steps
// (§3.4 of the P² paper: "lowering ... applies the generated grouping
// patterns to non-reduction axes when forming device groups").
//
// A lowered program is the common IR consumed by both the analytic cost
// model (internal/cost, the paper's simulator) and the event-level network
// emulator (internal/netsim, our testbed substitute): a list of steps, each
// a collective performed simultaneously by disjoint physical device groups,
// annotated with the fraction of the payload each participant holds.
package lower

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
)

// Step is one lowered reduction step: every group performs Op concurrently.
type Step struct {
	// Op is the collective operation.
	Op collective.Op
	// Groups are the participating physical device groups. Member order
	// is significant: the first device is the root for Reduce/Broadcast
	// and chunk blocks are assigned in order for ReduceScatter.
	//
	// Groups is read-only. The planning engine binds each instruction once
	// per placement, so the steps of every program of that placement using
	// the instruction alias the same slices; a consumer that needs to
	// reorder or rewrite groups copies them first (netsim's step fusion
	// does).
	Groups [][]int
	// Rows is the number of payload chunks (universe rows) each
	// participant holds entering the step (for Broadcast: the source's).
	Rows int
	// RowsOut is the chunk count a participant holds after the step (for
	// Reduce: the root's; non-roots drop to zero).
	RowsOut int
	// K is the chunk granularity: a full per-device payload is K chunks.
	K int
}

// FracIn returns the input payload fraction (Rows/K).
func (s Step) FracIn() float64 { return float64(s.Rows) / float64(s.K) }

// GroupSize returns the (uniform) group size of the step.
func (s Step) GroupSize() int { return len(s.Groups[0]) }

// Program is a lowered reduction program.
type Program struct {
	// Steps in execution order.
	Steps []Step
	// NumDevices is the physical device count of the placement.
	NumDevices int
	// K is the synthesis-universe size (chunks per payload).
	K int
}

// Lower lowers a DSL program against its synthesis hierarchy: Annotate for
// the chunk counts, Bind for each step's physical groups. It runs the
// universe semantics, so it fails with the same error a semantic check
// would. It serves programs that did not come out of the synthesizer and
// is the reference the planning engine's skeleton path is tested against.
func Lower(p dsl.Program, h *hierarchy.Hierarchy) (*Program, error) {
	shapes, err := Annotate(p, h)
	if err != nil {
		return nil, err
	}
	return Assemble(p, h, func(i int) ([][]int, dsl.Shape) { return Bind(p[i], h), shapes[i] }), nil
}

// Annotate runs the universe semantics of p over h and returns the shape
// of every step. Programs from the synthesizer already carry theirs
// (synth.Result.Shapes, equal to what Annotate derives) and skip it.
func Annotate(p dsl.Program, h *hierarchy.Hierarchy) ([]dsl.Shape, error) {
	shapes := make([]dsl.Shape, len(p))
	ctx := dsl.NewContext(h)
	for i, in := range p {
		next, err := ctx.Apply(in, h)
		if err != nil {
			return nil, fmt.Errorf("lower: step %d: %w", i, err)
		}
		u := in.Groups(h)[0][0]
		shapes[i] = dsl.StepShape(ctx[u], next[u])
		ctx = next
	}
	return shapes, nil
}

// Bind maps one instruction's leaf groups onto the physical devices of h's
// placement — every leaf group once per replica, member order kept — in
// Step.Groups order (ascending first device). It depends on the placement,
// not on the program around the instruction, so a caller lowering many
// programs against one hierarchy binds each distinct instruction once. It
// panics if the instruction fails Validate.
func Bind(in dsl.Instruction, h *hierarchy.Hierarchy) [][]int {
	phys, _ := AppendBind(nil, nil, in, h)
	return phys
}

// AppendBind is Bind into caller storage: it appends the instruction's
// groups to phys and their members to flat, and returns both, the groups
// being the returned phys past the given one's length. Storage reused
// across calls makes a warm bind allocate nothing.
func AppendBind(phys [][]int, flat []int, in dsl.Instruction, h *hierarchy.Hierarchy) ([][]int, []int) {
	l, reps, start := in.Layout(h), h.Replicas(), len(phys)
	phys = slices.Grow(phys, l.N*reps)
	flat = slices.Grow(flat, l.N*reps*l.Size) // one backing array, capacity-capped per group
	for r := 0; r < reps; r++ {
		for g := 0; g < l.N; g++ {
			for j, u := 0, l.First(g); j < l.Size; j, u = j+1, u+l.Stride {
				flat = append(flat, h.Leaves[u][r])
			}
			phys = append(phys, flat[len(flat)-l.Size:len(flat):len(flat)])
		}
	}
	// Groups are disjoint: first devices are distinct, the order unique.
	slices.SortFunc(phys[start:], func(a, b []int) int { return a[0] - b[0] })
	return phys, flat
}

// Assemble builds the lowered program of p from a source of its steps:
// step(i) must return Bind(p[i], h) — and may hand the same slices to any
// number of programs (see Step.Groups) — and step i's shape.
func Assemble(p dsl.Program, h *hierarchy.Hierarchy, step func(i int) ([][]int, dsl.Shape)) *Program {
	out := &Program{
		Steps:      make([]Step, len(p)),
		NumDevices: h.K() * h.Replicas(),
		K:          h.K(),
	}
	for i, in := range p {
		groups, shape := step(i)
		out.Steps[i] = Step{Op: in.Op, Groups: groups, Rows: shape.Rows, RowsOut: shape.RowsOut, K: h.K()}
	}
	return out
}

// AppendKey appends a canonical fingerprint of the lowered step sequence to
// buf — the (G1,C1)...(Gn,Cn) form used to compare expressiveness of
// synthesis hierarchies (Definition 3.1), e.g. "AllReduce:{0,1}{2,3};".
// Chunk annotations are excluded: two hierarchies chunk the same payload
// differently without changing the communication structure. The emulator
// seeds a program's jitter from these bytes.
func (p *Program) AppendKey(buf []byte) []byte {
	for _, st := range p.Steps {
		buf = append(append(buf, st.Op.String()...), ':')
		for _, g := range st.Groups {
			buf = append(buf, '{')
			for i, d := range g {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, int64(d), 10)
			}
			buf = append(buf, '}')
		}
		buf = append(buf, ';')
	}
	return buf
}

// String renders the lowered program compactly, e.g.
// "ReduceScatter×8(g=2, 1/1); AllReduce×8(g=2, 1/2); AllGather×8(g=2, 1/2)".
func (p *Program) String() string {
	parts := make([]string, len(p.Steps))
	for i, st := range p.Steps {
		parts[i] = fmt.Sprintf("%s×%d(g=%d, %d/%d)",
			st.Op, len(st.Groups), st.GroupSize(), st.Rows, st.K)
	}
	return strings.Join(parts, "; ")
}

// Validate checks structural invariants of a lowered program: groups within
// a step are disjoint, device ids are in range, and chunk counts are
// positive. It is a test oracle: the lowering tests check the programs
// they lower against it.
func (p *Program) Validate() error {
	if len(p.Steps) == 0 {
		return fmt.Errorf("lower: empty program")
	}
	for i, st := range p.Steps {
		if st.Rows <= 0 || st.K <= 0 {
			return fmt.Errorf("lower: step %d has non-positive chunk counts", i)
		}
		if len(st.Groups) == 0 {
			return fmt.Errorf("lower: step %d has no groups", i)
		}
		seen := map[int]bool{}
		size := len(st.Groups[0])
		for _, g := range st.Groups {
			if len(g) != size {
				return fmt.Errorf("lower: step %d has ragged groups", i)
			}
			if len(g) < 2 {
				return fmt.Errorf("lower: step %d has a singleton group", i)
			}
			for _, d := range g {
				if d < 0 || d >= p.NumDevices {
					return fmt.Errorf("lower: step %d device %d out of range", i, d)
				}
				if seen[d] {
					return fmt.Errorf("lower: step %d device %d in two groups", i, d)
				}
				seen[d] = true
			}
		}
	}
	return nil
}
