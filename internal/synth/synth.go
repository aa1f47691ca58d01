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
// The sealed states of a run are interned, so a context is a tuple of state
// ids: collective.Apply runs once per distinct (op, member states), a state
// meets its goal once, and a context reached by different prefixes is found
// by its exact tuple and expanded once. The search walks that DAG breadth
// first; the programs are its root-to-goal paths.
package synth

import (
	"encoding/binary"
	"slices"
	"strings"
	"time"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
)

// Options tune the synthesizer.
type Options struct {
	// MaxSize is the program-size limit. The paper uses 5; 0 means 5.
	MaxSize int
	// NoMemo disables context memoization (for ablation benchmarks): every
	// step reaches a fresh context and the walk is a tree.
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
	// Explored counts instruction applications attempted (search effort):
	// every candidate, once per expanded context.
	Explored int
	// MemoHits counts steps that reached a context already in the memo
	// table.
	MemoHits int
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration
}

// candidate is an instruction with its rendering and its device groups.
type candidate struct {
	in     dsl.Instruction
	name   string
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
		out = append(out, candidate{in: in, name: in.String(), groups: groups})
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

// synthesizer is the state of one Synthesize run. Nothing in it is shared
// between runs: a planner synthesizes several signatures concurrently.
type synthesizer struct {
	cands []candidate
	opts  Options
	res   *Result

	// The run's sealed states, interned: states[id], where two states share
	// an id iff they are Equal. byHash lists the ids per State.Hash.
	states []*collective.State
	byHash map[uint64][]int32
	// targets are the distinct goal states, goalID their ids, and target[u]
	// indexes leaf u's. within[id*len(targets)+t] says that state id is a
	// subset of targets[t]; interning fills it, so a (state, target) pair is
	// compared once.
	targets []*collective.State
	goalID  []int32
	target  []int32
	within  []bool
	// apps caches collective.Apply: (op, member state ids) → result ids.
	apps map[string][]int32
	// nodes are the contexts reached, in discovery order; nodeOf finds one
	// by its exact id tuple (unused under NoMemo).
	nodes  []node
	nodeOf map[string]int32

	// Scratch reused across steps.
	key    []byte
	group  []*collective.State
	next   []int32
	prog   dsl.Program
	shapes []dsl.Shape
}

// node is one context of the search: the state id of every leaf and, once
// expanded, the valid steps out of it in candidate order.
type node struct {
	ids   []int32
	goal  bool
	edges []edge
}

// edge is a valid step: candidate cand takes its node to next. Its shape is
// a function of the node it leaves, so every program through it shares it.
type edge struct {
	cand, next int32
	shape      dsl.Shape
}

// Synthesize enumerates every valid reduction program for h of size at
// most opts.MaxSize.
func Synthesize(h *hierarchy.Hierarchy, opts Options) *Result {
	start := time.Now() //p2:timing-ok synthesis wall time is reported in Result.Elapsed, never ranked
	s := newSynthesizer(h, opts)
	ids := make([]int32, h.K())
	for u, st := range dsl.NewContext(h) {
		ids[u] = s.intern(st)
	}
	s.nodeFor(ids)
	s.explore()
	s.emitAll()
	s.res.Elapsed = time.Since(start) //p2:timing-ok synthesis wall time is reported in Result.Elapsed, never ranked
	return s.res
}

// newSynthesizer sets a run up: the candidates in reporting order and the
// goal of every leaf.
func newSynthesizer(h *hierarchy.Hierarchy, opts Options) *synthesizer {
	if opts.MaxSize <= 0 {
		opts.MaxSize = DefaultMaxSize
	}
	s := &synthesizer{
		cands:  enumerate(h),
		opts:   opts,
		res:    &Result{},
		byHash: map[uint64][]int32{},
		apps:   map[string][]int32{},
		nodeOf: map[string]int32{},
		target: make([]int32, h.K()),
	}
	// Programs are reported by size, then in Program.String order. No
	// instruction renders as a prefix of another, so that is the order of
	// the instruction sequences under the instructions' own String order:
	// walking candidates in it emits every size class already sorted.
	slices.SortFunc(s.cands, func(a, b candidate) int { return strings.Compare(a.name, b.name) })
	for u := range s.target {
		// A reduction group shares one goal; its smallest leaf comes first.
		if first := h.Groups[u][0]; first != u {
			s.target[u] = s.target[first]
			continue
		}
		s.target[u] = int32(len(s.targets))
		s.targets = append(s.targets, dsl.TargetState(h, u))
	}
	for _, t := range s.targets {
		s.goalID = append(s.goalID, s.intern(t))
	}
	return s
}

// intern returns the id of st, a sealed state.
func (s *synthesizer) intern(st *collective.State) int32 { return s.internHashed(st, st.Hash()) }

// internHashed is intern with the bucket given: a hash only ever narrows the
// search, Equal decides, so colliding states still get distinct ids.
func (s *synthesizer) internHashed(st *collective.State, hash uint64) int32 {
	for _, id := range s.byHash[hash] {
		if s.states[id].Equal(st) {
			return id
		}
	}
	id := int32(len(s.states))
	s.states = append(s.states, st)
	s.byHash[hash] = append(s.byHash[hash], id)
	for _, t := range s.targets {
		s.within = append(s.within, st.SubsetOf(t))
	}
	return id
}

// appendIDs appends the ids to a map key, four bytes each.
func appendIDs(key []byte, ids ...int32) []byte {
	for _, id := range ids {
		key = binary.LittleEndian.AppendUint32(key, uint32(id))
	}
	return key
}

// apply returns the state ids op leaves on the members of group g of the
// context ids, in group order, or false if the Hoare premise fails.
// collective.Check decides that before anything is looked up or built —
// most attempts end there — and collective.Apply runs once per distinct
// (op, member states).
func (s *synthesizer) apply(op collective.Op, ids []int32, g []int) ([]int32, bool) {
	s.group, s.key = s.group[:0], append(s.key[:0], byte(op))
	for _, u := range g {
		s.group = append(s.group, s.states[ids[u]])
		s.key = appendIDs(s.key, ids[u])
	}
	if collective.Check(op, s.group) != nil {
		return nil, false
	}
	out, seen := s.apps[string(s.key)]
	if !seen {
		res, err := collective.Apply(op, s.group)
		if err != nil {
			return nil, false
		}
		out = make([]int32, len(res))
		for i, st := range res {
			out[i] = s.intern(st)
		}
		s.apps[string(s.key)] = out
	}
	return out, true
}

// step applies cand to node n. It returns the node reached, or false if some
// group's premise fails or some leaf would exceed its goal; only scratch is
// written before every group has passed.
func (s *synthesizer) step(n int32, cand *candidate) (int32, bool) {
	ids := s.nodes[n].ids
	s.next = append(s.next[:0], ids...)
	for _, g := range cand.groups {
		out, ok := s.apply(cand.in.Op, ids, g)
		if !ok {
			return 0, false
		}
		for i, u := range g {
			// Information never shrinks: past its goal, a leaf stays there.
			if !s.within[int(out[i])*len(s.targets)+int(s.target[u])] {
				return 0, false
			}
			s.next[u] = out[i]
		}
	}
	return s.nodeFor(s.next), true
}

// nodeFor returns the node of the context ids, adding it if it is new —
// which under NoMemo it always is.
func (s *synthesizer) nodeFor(ids []int32) int32 {
	if !s.opts.NoMemo {
		s.key = appendIDs(s.key[:0], ids...)
		if n, seen := s.nodeOf[string(s.key)]; seen {
			s.res.MemoHits++
			return n
		}
	}
	nd := node{ids: slices.Clone(ids), goal: true}
	for u, id := range ids {
		nd.goal = nd.goal && id == s.goalID[s.target[u]]
	}
	n := int32(len(s.nodes))
	s.nodes = append(s.nodes, nd)
	if !s.opts.NoMemo {
		s.nodeOf[string(s.key)] = n
	}
	return n
}

// explore expands, breadth first, every context within MaxSize-1 steps of
// the root (node 0), each once: the valid steps of a context do not depend
// on how many steps remain. No valid instruction can apply at the goal
// without exceeding a target, so a goal is never expanded.
func (s *synthesizer) explore() {
	lo, hi := int32(0), int32(1) // the nodes first reached at the current depth
	for depth := 0; depth < s.opts.MaxSize && lo < hi; depth++ {
		for n := lo; n < hi; n++ {
			if s.nodes[n].goal {
				continue
			}
			var edges []edge
			for ci := range s.cands {
				cand := &s.cands[ci]
				s.res.Explored++
				m, ok := s.step(n, cand)
				if !ok {
					continue
				}
				u := cand.groups[0][0]
				shape := dsl.StepShape(s.states[s.nodes[n].ids[u]], s.states[s.nodes[m].ids[u]])
				edges = append(edges, edge{cand: int32(ci), next: m, shape: shape})
			}
			s.nodes[n].edges = edges
		}
		lo, hi = hi, int32(len(s.nodes))
	}
}

// emitAll reports every path from the root to a goal of at most MaxSize
// steps, shortest first. reach[n][v] says that exactly n steps can take node
// v to a goal, so the walk only ever enters a prefix that completes.
func (s *synthesizer) emitAll() {
	reach := make([][]bool, s.opts.MaxSize+1)
	for n := range reach {
		reach[n] = make([]bool, len(s.nodes))
		for v := range s.nodes {
			if n == 0 {
				reach[n][v] = s.nodes[v].goal
				continue
			}
			for _, e := range s.nodes[v].edges {
				if reach[n-1][e.next] {
					reach[n][v] = true
					break
				}
			}
		}
		if reach[n][0] {
			s.emit(reach, 0, n)
		}
	}
}

// emit appends every way to finish the current prefix from node v in exactly
// n steps.
func (s *synthesizer) emit(reach [][]bool, v int32, n int) {
	if n == 0 {
		s.res.Programs = append(s.res.Programs, slices.Clone(s.prog))
		s.res.Shapes = append(s.res.Shapes, slices.Clone(s.shapes))
		return
	}
	for _, e := range s.nodes[v].edges {
		if !reach[n-1][e.next] {
			continue
		}
		s.prog = append(s.prog, s.cands[e.cand].in)
		s.shapes = append(s.shapes, e.shape)
		s.emit(reach, e.next, n-1)
		s.prog, s.shapes = s.prog[:len(s.prog)-1], s.shapes[:len(s.shapes)-1]
	}
}

// BaselineAllReduce is the default implementation the paper compares
// against: a single AllReduce over each full reduction group (one global
// InsideGroup step at the root).
func BaselineAllReduce() dsl.Program {
	return dsl.Program{{Slice: 0, Form: dsl.InsideGroup, Op: collective.AllReduce}}
}
