// Package synth implements the syntax-guided program synthesis of §3.5 of
// the P² paper: enumerating reduction programs over a synthesis hierarchy
// in increasing order of program size, using the Hoare-rule semantics of
// the collectives to prune semantically invalid prefixes.
//
// Two prunings keep the search tractable:
//
//   - Semantic preconditions: a step whose collective preconditions fail on
//     the current state context is discarded (this rejects the Fig. 4
//     programs immediately).
//   - Target bounding: a step that pushes any device's state beyond its
//     goal state can never reach the goal (information never shrinks), so
//     the whole subtree is discarded. This is the operational form of the
//     "only partitioned over reduction axes" requirement (Lemma B.3).
//
// Contexts reached by different prefixes are memoized, so the enumeration
// is a DAG walk rather than a tree walk.
package synth

import (
	"sort"
	"time"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
)

// Options tune the synthesizer.
type Options struct {
	// MaxSize is the program-size limit. The paper uses 5; 0 means 5.
	MaxSize int
	// NoMemo disables context memoization (for ablation benchmarks).
	NoMemo bool
}

// DefaultMaxSize is the program-size limit used when Options.MaxSize is
// zero (the paper uses 5).
const DefaultMaxSize = 5

// Result is the outcome of a synthesis run.
type Result struct {
	// Programs are all distinct valid programs implementing the requested
	// reduction, sorted by size then lexicographically by instruction.
	Programs []dsl.Program
	// Shapes is the leaf-space lowering skeleton: Shapes[i][s] is the
	// chunk accounting of step s of Programs[i], read off the contexts the
	// search walked while proving the program valid. Lowering a synthesized
	// program therefore never re-runs the universe semantics (what
	// lower.Annotate does for programs from anywhere else).
	Shapes [][]dsl.Shape
	// Explored counts instruction applications attempted (search effort).
	Explored int
	// MemoHits counts contexts served from the memo table.
	MemoHits int
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration
}

// candidate is an instruction with its precomputed device groups.
type candidate struct {
	in     dsl.Instruction
	groups [][]int
}

// Candidates enumerates the deduplicated instruction space for h: every
// (slice, form, arg, op) combination that passes validation, keeping one
// representative per distinct (device grouping, op) effect. The order is
// canonical: slice, form, arg, then op.
func Candidates(h *hierarchy.Hierarchy) []dsl.Instruction {
	cands := enumerate(h)
	out := make([]dsl.Instruction, len(cands))
	for i, c := range cands {
		out[i] = c.in
	}
	return out
}

func enumerate(h *hierarchy.Hierarchy) []candidate {
	var out []candidate
	seen := map[string]bool{}
	L := h.NumLevels()
	add := func(in dsl.Instruction) {
		if in.Validate(h) != nil || !in.Admissible(h) {
			return
		}
		groups := in.Groups(h)
		key := groupsKey(groups, in.Op)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, candidate{in: in, groups: groups})
	}
	for slice := 0; slice < L; slice++ {
		for _, op := range collective.Ops {
			add(dsl.Instruction{Slice: slice, Form: dsl.InsideGroup, Op: op})
		}
		for arg := 0; arg < slice; arg++ {
			for _, op := range collective.Ops {
				add(dsl.Instruction{Slice: slice, Form: dsl.Parallel, Arg: arg, Op: op})
			}
			for _, op := range collective.Ops {
				add(dsl.Instruction{Slice: slice, Form: dsl.Master, Arg: arg, Op: op})
			}
		}
	}
	return out
}

func groupsKey(groups [][]int, op collective.Op) string {
	// Compact textual signature; groups are canonical so this is stable.
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(op))
	for _, g := range groups {
		for _, u := range g {
			buf = append(buf, byte(u), byte(u>>8))
		}
		buf = append(buf, 0xff, 0xff)
	}
	return string(buf)
}

type synthesizer struct {
	h       *hierarchy.Hierarchy
	cands   []candidate
	targets []*collective.State
	opts    Options
	memo    map[memoKey][]suffix
	res     *Result
}

// suffix is a program tail reaching the goal from some context, with the
// shape of each of its steps.
type suffix struct {
	prog   dsl.Program
	shapes []dsl.Shape
}

type memoKey struct {
	h1, h2 uint64
	budget int
}

// Synthesize enumerates every valid reduction program for h of size at
// most opts.MaxSize.
func Synthesize(h *hierarchy.Hierarchy, opts Options) *Result {
	start := time.Now() //p2:timing-ok synthesis wall time is reported in Result.Elapsed, never ranked
	if opts.MaxSize <= 0 {
		opts.MaxSize = DefaultMaxSize
	}
	s := &synthesizer{
		h:     h,
		cands: enumerate(h),
		opts:  opts,
		memo:  map[memoKey][]suffix{},
		res:   &Result{},
	}
	s.targets = make([]*collective.State, h.K())
	for u := 0; u < h.K(); u++ {
		s.targets[u] = dsl.TargetState(h, u)
	}
	sufs := s.suffixes(dsl.NewContext(h), opts.MaxSize)
	// The DFS returns suffix order; sort by size then lexicographic.
	// Rendering both programs inside the comparator dominated large
	// syntheses, so the keys are computed once up front (String is
	// injective over programs, so the order is unchanged).
	keys := make([]string, len(sufs))
	for i, suf := range sufs {
		keys[i] = suf.prog.String()
	}
	sort.Sort(&bySizeThenKey{sufs: sufs, keys: keys})
	s.res.Programs = make([]dsl.Program, len(sufs))
	s.res.Shapes = make([][]dsl.Shape, len(sufs))
	for i, suf := range sufs {
		s.res.Programs[i], s.res.Shapes[i] = suf.prog, suf.shapes
	}
	s.res.Elapsed = time.Since(start) //p2:timing-ok synthesis wall time is reported in Result.Elapsed, never ranked
	return s.res
}

// bySizeThenKey sorts programs (with their shapes) by size then by their
// precomputed rendering, keeping the two slices aligned.
type bySizeThenKey struct {
	sufs []suffix
	keys []string
}

func (b *bySizeThenKey) Len() int { return len(b.sufs) }
func (b *bySizeThenKey) Less(i, j int) bool {
	if len(b.sufs[i].prog) != len(b.sufs[j].prog) {
		return len(b.sufs[i].prog) < len(b.sufs[j].prog)
	}
	return b.keys[i] < b.keys[j]
}
func (b *bySizeThenKey) Swap(i, j int) {
	b.sufs[i], b.sufs[j] = b.sufs[j], b.sufs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

func (s *synthesizer) atGoal(ctx dsl.Context) bool {
	for u, st := range ctx {
		if !st.Equal(s.targets[u]) {
			return false
		}
	}
	return true
}

// withinTargets reports whether every device state is still a subset of its
// goal; once exceeded, the goal is unreachable.
func (s *synthesizer) withinTargets(ctx dsl.Context) bool {
	for u, st := range ctx {
		if !st.SubsetOf(s.targets[u]) {
			return false
		}
	}
	return true
}

// suffixes returns every program tail of at most budget steps that takes
// ctx to the goal. Lists are memoized by context, and a step's shape is a
// function of the context it applies to, so a shared tail carries the same
// shapes wherever it is reused.
func (s *synthesizer) suffixes(ctx dsl.Context, budget int) []suffix {
	if s.atGoal(ctx) {
		// No valid instruction can apply at the goal without exceeding a
		// target, so the empty program is the only suffix.
		return []suffix{{}}
	}
	if budget == 0 {
		return nil
	}
	key := hashContext(ctx, budget)
	if !s.opts.NoMemo {
		if v, ok := s.memo[key]; ok {
			s.res.MemoHits++
			return v
		}
	}
	var out []suffix
	for _, cand := range s.cands {
		s.res.Explored++
		next, _, err := ctx.ApplyGroups(cand.in.Op, cand.groups)
		if err != nil {
			continue
		}
		if !s.withinTargets(next) {
			continue
		}
		shape := dsl.StepShape(cand.in.Op, cand.groups[0], ctx, next)
		for _, suf := range s.suffixes(next, budget-1) {
			prog := make(dsl.Program, 0, len(suf.prog)+1)
			prog = append(append(prog, cand.in), suf.prog...)
			shapes := make([]dsl.Shape, 0, len(suf.shapes)+1)
			shapes = append(append(shapes, shape), suf.shapes...)
			out = append(out, suffix{prog: prog, shapes: shapes})
		}
	}
	if !s.opts.NoMemo {
		s.memo[key] = out
	}
	return out
}

// hashContext computes a 128-bit FNV-1a hash of the packed context plus the
// remaining budget.
func hashContext(ctx dsl.Context, budget int) memoKey {
	const (
		off1   = 14695981039346656037
		prime1 = 1099511628211
		off2   = 0x9e3779b97f4a7c15
	)
	var h1 uint64 = off1
	var h2 uint64 = off2
	var words []uint64
	for _, st := range ctx {
		words = st.AppendWords(words[:0])
		for _, w := range words {
			for sh := 0; sh < 64; sh += 8 {
				b := uint64(byte(w >> sh))
				h1 = (h1 ^ b) * prime1
				h2 = (h2 ^ (b + 0xabcdef)) * prime1
			}
		}
	}
	return memoKey{h1: h1, h2: h2, budget: budget}
}

// BaselineAllReduce is the default implementation the paper compares
// against: a single AllReduce over each full reduction group (one global
// InsideGroup step at the root).
func BaselineAllReduce() dsl.Program {
	return dsl.Program{{Slice: 0, Form: dsl.InsideGroup, Op: collective.AllReduce}}
}
