// Package dsl implements the reduction language of §3.3 of the P² paper.
//
// A reduction program is a list of instructions; each instruction is a
// (slice, form, collective) triple interpreted against a synthesis
// hierarchy. The slice picks a hierarchy level and divides the leaves into
// slice groups (all leaves under one level entity). The form then decides
// the device groups that actually perform the collective:
//
//	InsideGroup  — each slice group reduces internally.
//	Parallel(e)  — the i-th members of the slice groups under the same
//	               level-e ancestor reduce together, for every i.
//	Master(e)    — like Parallel(e), but only the first (i = 0) group per
//	               ancestor reduces.
//
// The e carried by Parallel/Master must be a strict ancestor of the slice
// level.
package dsl

import (
	"fmt"
	"strconv"
	"strings"

	"p2/internal/collective"
	"p2/internal/hierarchy"
)

// FormKind is the shape of a reduction form.
type FormKind int

const (
	// InsideGroup reduces within each slice group.
	InsideGroup FormKind = iota
	// Parallel reduces corresponding members of sibling slice groups
	// under a common ancestor, all positions in parallel.
	Parallel
	// Master is Parallel restricted to the first position per ancestor.
	Master
)

// String names the form kind as in the paper.
func (f FormKind) String() string {
	switch f {
	case InsideGroup:
		return "InsideGroup"
	case Parallel:
		return "Parallel"
	case Master:
		return "Master"
	default:
		return fmt.Sprintf("FormKind(%d)", int(f))
	}
}

// Instruction is one reduction step: a slice level, a form (with its
// ancestor argument when applicable), and a collective operation.
type Instruction struct {
	// Slice is the hierarchy level index (0 = root).
	Slice int
	// Form is the reduction form.
	Form FormKind
	// Arg is the ancestor level for Parallel/Master; ignored for
	// InsideGroup.
	Arg int
	// Op is the collective to perform on each derived device group.
	Op collective.Op
}

// String renders the instruction like "(2, Parallel(1), AllReduce)".
func (in Instruction) String() string {
	form := in.Form.String()
	if in.Form != InsideGroup {
		form = fmt.Sprintf("%s(%d)", form, in.Arg)
	}
	return fmt.Sprintf("(%d, %s, %s)", in.Slice, form, in.Op)
}

// Program is a sequence of reduction instructions.
type Program []Instruction

// String renders the program as a semicolon-separated instruction list.
func (p Program) String() string {
	parts := make([]string, len(p))
	for i, in := range p {
		parts[i] = in.String()
	}
	return strings.Join(parts, "; ")
}

// Ops returns the sequence of collective operations, e.g. for recognizing
// the Reduce-AllReduce-Broadcast pattern.
func (p Program) Ops() []collective.Op {
	out := make([]collective.Op, len(p))
	for i, in := range p {
		out[i] = in.Op
	}
	return out
}

// Clone returns a copy of the program.
func (p Program) Clone() Program { return append(Program(nil), p...) }

// Validate checks that the instruction's levels are meaningful for h: the
// slice must exist, Parallel/Master arguments must be strict ancestors, and
// the derived groups must have at least two members.
func (in Instruction) Validate(h *hierarchy.Hierarchy) error {
	L := h.NumLevels()
	if in.Slice < 0 || in.Slice >= L {
		return fmt.Errorf("dsl: slice level %d out of range [0,%d)", in.Slice, L)
	}
	switch in.Form {
	case InsideGroup:
		if h.Radix().Weight(in.Slice) < 2 {
			return fmt.Errorf("dsl: InsideGroup at leaf slice %d has singleton groups", in.Slice)
		}
	case Parallel, Master:
		if in.Arg < 0 || in.Arg >= in.Slice {
			return fmt.Errorf("dsl: form ancestor %d is not a strict ancestor of slice %d", in.Arg, in.Slice)
		}
		if h.Radix().Weight(in.Arg)/h.Radix().Weight(in.Slice) < 2 {
			return fmt.Errorf("dsl: Parallel/Master(%d) at slice %d has singleton groups", in.Arg, in.Slice)
		}
	default:
		return fmt.Errorf("dsl: unknown form %v", in.Form)
	}
	return nil
}

// Admissible implements the syntactic validity conditions the paper
// derives from the semantics (Corollary B.4, Lemmas B.5 and B.6): every
// non-root hierarchy level an instruction varies — or, for Master, merely
// lies below the form's ancestor — must be a reduction-axis level.
// Instructions violating these conditions either fail semantically or lead
// to states from which the goal is unreachable, except for degenerate
// information-duplicating Broadcasts, which the paper's synthesizer also
// excludes. For KindReductionAxes hierarchies every level is a reduction
// level, so Admissible is always true there.
func (in Instruction) Admissible(h *hierarchy.Hierarchy) bool {
	L := h.NumLevels()
	switch in.Form {
	case InsideGroup:
		// Varies levels slice+1 .. L-1 (Lemma B.5).
		for l := in.Slice + 1; l < L; l++ {
			if !h.ReductionLevel[l] {
				return false
			}
		}
	case Parallel:
		// Varies levels arg+1 .. slice (Corollary B.4).
		for l := in.Arg + 1; l <= in.Slice; l++ {
			if !h.ReductionLevel[l] {
				return false
			}
		}
	case Master:
		// Requires everything below the ancestor to be reduction-axis
		// levels (Lemma B.6).
		for l := in.Arg + 1; l < L; l++ {
			if !h.ReductionLevel[l] {
				return false
			}
		}
	}
	return true
}

// Groups derives the leaf-index device groups of the instruction under h,
// in canonical order (ascending smallest member). Each group is sorted
// ascending; the first member is the root for Reduce/Broadcast. Groups are
// disjoint by construction. It panics if the instruction fails Validate.
func (in Instruction) Groups(h *hierarchy.Hierarchy) [][]int {
	if err := in.Validate(h); err != nil {
		panic(err)
	}
	rad, k := h.Radix(), h.K()
	var n, size int           // group count and (uniform) group size
	var groupOf func(int) int // the group of leaf u, or -1 for none
	switch in.Form {
	case InsideGroup:
		w := rad.Weight(in.Slice)
		n, size = k/w, w
		groupOf = func(u int) int { return u / w }
	case Parallel, Master:
		wa := rad.Weight(in.Arg)   // span of one ancestor subtree
		ws := rad.Weight(in.Slice) // span of one slice subtree
		// Leaf u belongs to ancestor u/wa, middle position
		// (u%wa)/ws, and within-slice position u%ws. A device group
		// fixes (ancestor, within-slice position) and varies the middle.
		n, size = k/(wa/ws), wa/ws
		groupOf = func(u int) int { return u/wa*ws + u%ws }
		if in.Form == Master { // only the position-0 group per ancestor
			n = k / wa
			groupOf = func(u int) int {
				if u%ws != 0 {
					return -1
				}
				return u / wa
			}
		}
	}
	// Groups are cut from one backing array, capacity-capped so that
	// appending to one cannot reach its neighbour.
	groups, flat := make([][]int, n), make([]int, n*size)
	for g := range groups {
		groups[g] = flat[g*size : g*size : (g+1)*size]
	}
	for u := 0; u < k; u++ {
		if g := groupOf(u); g >= 0 {
			groups[g] = append(groups[g], u)
		}
	}
	return groups
}

// Context is the per-leaf device state of a synthesis universe.
//
// States reachable from a Context are immutable: collective.Apply returns
// fresh states and nothing writes a *collective.State once it is part of a
// context, so successive contexts share the states of the leaves a step did
// not touch. Code that wants to mutate a state must Clone it first.
type Context []*collective.State

// NewContext returns the initial context for hierarchy h: leaf u holds only
// its own data (column u all ones).
func NewContext(h *hierarchy.Hierarchy) Context {
	k := h.K()
	ctx := make(Context, k)
	for u := 0; u < k; u++ {
		ctx[u] = collective.InitialState(k, u)
	}
	return ctx
}

// Apply executes one instruction over the context, returning the new
// context. Devices not participating in any derived group keep their state,
// which the new context shares with c (see the immutability contract on
// Context). It returns the first semantic error encountered (the instruction
// is then invalid in this state, per the Hoare rules of §3.2).
func (c Context) Apply(in Instruction, h *hierarchy.Hierarchy) (Context, error) {
	groups := in.Groups(h)
	out := append(Context(nil), c...)
	// One scratch for every (equal-sized) group: collective.Apply keeps no
	// reference to its argument.
	states := make([]*collective.State, 0, len(groups[0]))
	for _, g := range groups {
		states = states[:0]
		for _, u := range g {
			states = append(states, c[u])
		}
		res, err := collective.Apply(in.Op, states)
		if err != nil {
			return nil, fmt.Errorf("dsl: %s on group %v: %w", in, g, err)
		}
		for i, u := range g {
			out[u] = res[i]
		}
	}
	return out, nil
}

// Shape is the chunk accounting of one program step: how many payload
// chunks (universe rows) a participant holds entering and leaving it. It is
// a function of the hierarchy signature and the program prefix alone, so
// one Shape serves every placement sharing the signature.
type Shape struct {
	// Rows is the chunk count entering the step (for Broadcast: the
	// source's).
	Rows int
	// RowsOut is the chunk count after the step (for Reduce: the root's;
	// non-roots drop to zero).
	RowsOut int
}

// StepShape reads the shape of a step off the first member of its first
// group: the states that leaf held entering and leaving the step. It is the
// root of a Reduce or Broadcast, and for the other collectives every member
// holds as many chunks as it does.
func StepShape(before, after *collective.State) Shape {
	return Shape{Rows: before.NumRows(), RowsOut: after.NumRows()}
}

// Run executes the whole program from the initial context of h.
func (p Program) Run(h *hierarchy.Hierarchy) (Context, error) {
	ctx := NewContext(h)
	for i, in := range p {
		next, err := ctx.Apply(in, h)
		if err != nil {
			return nil, fmt.Errorf("dsl: step %d: %w", i, err)
		}
		ctx = next
	}
	return ctx, nil
}

// TargetState returns the desired final state of leaf u, sealed: every row
// set in exactly the columns of u's reduction group.
func TargetState(h *hierarchy.Hierarchy, u int) *collective.State {
	k := h.K()
	s := collective.NewState(k)
	for r := 0; r < k; r++ {
		for _, c := range h.Groups[u] {
			s.Set(r, c)
		}
	}
	return s.Seal()
}

// AtGoal reports whether the context has reached the target state of every
// leaf.
func (c Context) AtGoal(h *hierarchy.Hierarchy) bool {
	for u, s := range c {
		if !s.Equal(TargetState(h, u)) {
			return false
		}
	}
	return true
}

// Implements reports whether p is a semantically valid implementation of
// the requested reduction over h: it runs without semantic errors and ends
// at the goal.
func (p Program) Implements(h *hierarchy.Hierarchy) bool {
	ctx, err := p.Run(h)
	return err == nil && ctx.AtGoal(h)
}

// Parse parses a program printed by Program.String, e.g.
// "(1, InsideGroup, ReduceScatter); (1, Parallel(0), AllReduce)".
func Parse(s string) (Program, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("dsl: empty program")
	}
	var prog Program
	for _, part := range strings.Split(s, ";") {
		in, err := parseInstruction(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		prog = append(prog, in)
	}
	return prog, nil
}

func parseInstruction(s string) (Instruction, error) {
	var in Instruction
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return in, fmt.Errorf("dsl: instruction %q must be parenthesized", s)
	}
	fields := strings.Split(s[1:len(s)-1], ",")
	if len(fields) != 3 {
		return in, fmt.Errorf("dsl: instruction %q must have three fields", s)
	}
	slice, err := strconv.Atoi(strings.TrimSpace(fields[0]))
	if err != nil {
		return in, fmt.Errorf("dsl: bad slice in %q: %w", s, err)
	}
	in.Slice = slice
	form := strings.TrimSpace(fields[1])
	switch {
	case form == "InsideGroup":
		in.Form = InsideGroup
	case strings.HasPrefix(form, "Parallel(") && strings.HasSuffix(form, ")"):
		in.Form = Parallel
		if in.Arg, err = strconv.Atoi(form[len("Parallel(") : len(form)-1]); err != nil {
			return in, fmt.Errorf("dsl: bad Parallel arg in %q: %w", s, err)
		}
	case strings.HasPrefix(form, "Master(") && strings.HasSuffix(form, ")"):
		in.Form = Master
		if in.Arg, err = strconv.Atoi(form[len("Master(") : len(form)-1]); err != nil {
			return in, fmt.Errorf("dsl: bad Master arg in %q: %w", s, err)
		}
	default:
		return in, fmt.Errorf("dsl: unknown form %q", form)
	}
	op, err := collective.ParseOp(strings.TrimSpace(fields[2]))
	if err != nil {
		return in, err
	}
	in.Op = op
	return in, nil
}
