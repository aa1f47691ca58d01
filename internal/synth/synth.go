// Package synth implements the syntax-guided program synthesis of §3.5 of
// the P² paper: enumerating reduction programs over a synthesis hierarchy
// in increasing order of program size, using the Hoare-rule semantics of
// the collectives to prune semantically invalid prefixes.
//
// Three prunings keep the search tractable:
//
//   - Semantic preconditions: a step whose collective preconditions fail on
//     the current state context is discarded (this rejects the Fig. 4
//     programs immediately).
//   - Target bounding: a step that pushes any device's state beyond its
//     goal state can never reach the goal (information never shrinks), so
//     the whole subtree is discarded. This is the operational form of the
//     "only partitioned over reduction axes" requirement (Lemma B.3).
//   - Goal-directed last step: at the size limit only a step that lands on
//     the goal matters. Reduce and ReduceScatter leave a member short of
//     it and a grouping that misses a leaf off its goal leaves that leaf
//     there, so neither is attempted; a step that misses the goal makes
//     no context.
//
// The sealed states of a run are interned, so a context is a tuple of state
// ids. The candidates that differ only in their op share their groups, and
// each group's premises are checked once per context for all of them —
// AllReduce, Reduce and ReduceScatter share one. collective.Post runs once
// per distinct (op, member states), into pooled scratch that is kept only
// for a state the run has not interned, a state meets its goal once, and a
// context reached by different prefixes is found by its exact tuple and
// expanded once. The search walks that DAG breadth first; the programs are
// its root-to-goal paths.
package synth

import (
	"math/bits"
	"slices"
	"strings"
	"sync"
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

// MaxUniverse is the largest reduction group, in leaves, that request
// resolution (plan.Resolve) lets reach synthesis. A leaf's state is a K×K
// bit matrix and a run starts from K of them, so the cost grows with K² and
// faster: on four levels, K = 128 takes about 21 MB and 55 ms, K = 256
// about 125 MB and 0.35 s (2-vCPU Xeon). The largest group the benchmark
// plans has 64 leaves.
const MaxUniverse = 128

// Result is the outcome of a synthesis run.
type Result struct {
	// Programs are all distinct valid programs implementing the requested
	// reduction, sorted by size then lexicographically by instruction.
	Programs []dsl.Program
	// StepIDs[i][s] is the index in Steps of step s of Programs[i].
	StepIDs [][]int32
	// Steps are the distinct steps the programs take, numbered in the order
	// the search first took them: an instruction of Instructions with the
	// chunk accounting (shape) read off the contexts the search walked while
	// proving the programs valid. Lowering a synthesized program therefore
	// never re-runs the universe semantics (what lower.Annotate does for
	// programs from anywhere else), and a consumer scoring every program can
	// keep per-step and per-instruction tables indexed, not hashed.
	Steps []Step
	// Instructions are the distinct instructions of Steps.
	Instructions []dsl.Instruction
	// Explored counts the instruction applications attempted (search
	// effort): every candidate at every context the search expands, except
	// that a last step, at the size limit, attempts only the candidates
	// that can land on the goal — no Reduce or ReduceScatter, and no
	// candidate whose groups miss a leaf off its goal.
	Explored int
	// MemoHits counts steps that reached a context already in the memo
	// table.
	MemoHits int
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration
}

// Step is one distinct step of a Result: Instructions[Instr], taken where
// it has shape Shape.
type Step struct {
	Instr int32
	Shape dsl.Shape
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
	var e enumeration
	e.run(h)
	out := make([]dsl.Instruction, len(e.cands))
	for i, c := range e.cands {
		out[i] = c.in
	}
	return out
}

// enumeration is the candidate list of one hierarchy and the storage it
// is cut from: the groups of a candidate are a window of groups, each group
// a window of flat, and layouts[i] is the layout of the i-th candidate
// enumerated (the synthesizer sorts cands afterwards). It keeps one from
// run to run, so a warm enumeration allocates only the names.
type enumeration struct {
	cands   []candidate
	layouts []dsl.Layout
	groups  [][]int
	flat    []int
}

// run enumerates h's candidates, in canonical order, into e.
func (e *enumeration) run(h *hierarchy.Hierarchy) {
	e.cands, e.layouts, e.groups, e.flat = e.cands[:0], e.layouts[:0], e.groups[:0], e.flat[:0]
	for slice := 0; slice < h.NumLevels(); slice++ {
		for _, op := range collective.Ops {
			e.add(h, dsl.Instruction{Slice: slice, Form: dsl.InsideGroup, Op: op})
		}
		for arg := 0; arg < slice; arg++ {
			for _, op := range collective.Ops {
				e.add(h, dsl.Instruction{Slice: slice, Form: dsl.Parallel, Arg: arg, Op: op})
			}
			for _, op := range collective.Ops {
				e.add(h, dsl.Instruction{Slice: slice, Form: dsl.Master, Arg: arg, Op: op})
			}
		}
	}
}

// add appends in unless it is invalid, inadmissible or has the op and the
// groups of a candidate already kept.
func (e *enumeration) add(h *hierarchy.Hierarchy, in dsl.Instruction) {
	if !in.Valid(h) || !in.Admissible(h) {
		return
	}
	l := in.Layout(h)
	for i, c := range e.cands {
		if c.in.Op == in.Op && e.layouts[i].Equal(l) {
			return
		}
	}
	start := len(e.groups)
	for g := range l.N {
		at := len(e.flat)
		for j, u := 0, l.First(g); j < l.Size; j, u = j+1, u+l.Stride {
			e.flat = append(e.flat, u)
		}
		e.groups = append(e.groups, e.flat[at:len(e.flat):len(e.flat)])
	}
	e.cands = append(e.cands, candidate{in: in, name: in.String(), groups: e.groups[start:len(e.groups):len(e.groups)]})
	e.layouts = append(e.layouts, l)
}

// synthesizer is the working set of a Synthesize run, pooled: owned by one
// run at a time and shared by none, and no Result points into it.
type synthesizer struct {
	enum      enumeration
	cands     []candidate // enum.cands, sorted by name
	groupings []grouping
	covers    []uint64 // the groupings' cover words
	opts      Options
	res       *Result

	// The run's sealed states, interned: states[id], where two states share
	// an id iff they are Equal. byHash is the highest id per State.Hash and
	// sameHash[id] the next lower id sharing id's hash (-1: none).
	states   []*collective.State
	byHash   map[uint64]int32
	sameHash []int32
	// owned are the states collective.Post writes, kept from run to run:
	// owned[:used] are this run's interned results, the rest spare.
	owned []*collective.State
	used  int
	// targets are the distinct goal states, goal the goal's id tuple, and
	// target[u] indexes leaf u's. within[id*len(targets)+t] says that state
	// id is a subset of targets[t]; interning fills it, so a (state, target)
	// pair is compared once.
	targets []*collective.State
	goal    []int32
	target  []int32
	within  []bool
	// apps caches collective.Apply: tuple a of apps is (op, member state
	// ids), and its result ids are appOut[appAt[a]:][:len(members)]. empty
	// is the id of the empty state.
	apps   tupleSet
	appAt  []int
	appOut []int32
	empty  int32
	// nodes are the contexts reached, in discovery order; ctxs holds their
	// id tuples, indexed for lookup unless NoMemo. edges holds every node's
	// valid steps, one node's contiguously.
	nodes []node
	ctxs  tupleSet
	edges []edge
	// stepOf numbers the distinct steps of Result.Steps, instrOf the
	// candidates' indexes in Result.Instructions (-1 until one is taken).
	stepOf  map[Step]int32
	instrOf []int32

	// Scratch reused across steps.
	key   []int32
	out   []int32
	group []*collective.State
	next  []int32
	off   []uint64 // on a last step, the leaves off their goal
	// emitAll's path counts, a row of len(nodes) per step count; emit's
	// prefix of step ids, and the backing arrays (the Result's) every
	// finished program and step list is a capacity-capped window of.
	paths []int
	path  []int32
	prog  dsl.Program
	ids   []int32
}

// grouping is a run of candidates that differ only in their op, so they
// share their device groups and, op family by op family, their premises:
// cands[first:end]. ops has a bit per candidate op, and cover a bit per
// leaf some group holds.
type grouping struct {
	first, end int
	groups     [][]int
	ops        opSet
	cover      []uint64
}

// opSet is a set of collective ops, bit op for op.
type opSet uint8

func bit(op collective.Op) opSet { return 1 << op }

// reducing are the ops of collective.Check's one reducing premise; the
// last step never takes the last two, which leave a leaf short of its goal.
const (
	reducing  = 1<<collective.AllReduce | 1<<collective.Reduce | 1<<collective.ReduceScatter
	shortfall = 1<<collective.Reduce | 1<<collective.ReduceScatter
)

// node is one context of the search: whether it is the goal and, once
// expanded, its valid steps edges[lo:hi] in candidate order.
type node struct {
	goal   bool
	lo, hi int32
}

// edge is a valid step: step takes its node to next. Its shape is a
// function of the node it leaves, so every program through it shares it.
type edge struct {
	step, next int32
}

// tupleSet numbers distinct int32 tuples, kept back to back in one arena:
// tuple i is arena[at[i]:at[i+1]]. A hash only narrows the search for a
// tuple, slices.Equal decides, so colliding tuples get distinct numbers.
type tupleSet struct {
	arena []int32
	at    []int
	// last is the highest-numbered tuple per hash, and prev[i] the next
	// lower one sharing tuple i's hash (-1: none). Tuples added by push
	// alone are in neither.
	last map[uint64]int32
	prev []int32
}

// reset empties t, keeping its storage.
func (t *tupleSet) reset() {
	t.arena, t.at, t.prev = t.arena[:0], append(t.at[:0], 0), t.prev[:0]
	if t.last == nil {
		t.last = map[uint64]int32{}
	}
	clear(t.last)
}

func (t *tupleSet) tuple(i int32) []int32 { return t.arena[t.at[i]:t.at[i+1]] }

// intern returns the number of key, adding it if it is new (added).
func (t *tupleSet) intern(key []int32) (i int32, added bool) {
	h := hashIDs(key)
	last, ok := t.last[h]
	for i = last; ok && i >= 0; i = t.prev[i] {
		if slices.Equal(t.tuple(i), key) {
			return i, false
		}
	}
	i = t.push(key)
	if ok {
		t.prev[i] = last
	}
	t.last[h] = i
	return i, true
}

// push numbers key without indexing it: intern never finds it.
func (t *tupleSet) push(key []int32) int32 {
	t.arena = append(t.arena, key...)
	t.at = append(t.at, len(t.arena))
	t.prev = append(t.prev, -1)
	return int32(len(t.prev) - 1)
}

// hashIDs hashes an id tuple.
func hashIDs(ids []int32) uint64 {
	h := uint64(len(ids))
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// runs pools the synthesizers Synthesize borrows for one run each.
var runs = sync.Pool{New: func() any { return new(synthesizer) }}

// Synthesize enumerates every valid reduction program for h of size at
// most opts.MaxSize.
func Synthesize(h *hierarchy.Hierarchy, opts Options) *Result {
	s := runs.Get().(*synthesizer)
	res := s.run(h, opts)
	// A run that panics does not return its synthesizer, so the pool never
	// holds a half-built one.
	runs.Put(s)
	return res
}

// run is one synthesis on s, which it resets first.
func (s *synthesizer) run(h *hierarchy.Hierarchy, opts Options) *Result {
	start := time.Now() //p2:timing-ok synthesis wall time is reported in Result.Elapsed, never ranked
	s.reset(h, opts)
	s.next = s.next[:0]
	for _, st := range dsl.NewContext(h) {
		s.next = append(s.next, s.intern(st))
	}
	s.nodeFor(s.next)
	s.explore()
	s.emitAll()
	res := s.res
	res.Elapsed = time.Since(start) //p2:timing-ok synthesis wall time is reported in Result.Elapsed, never ranked
	s.res, s.cands, s.prog, s.ids = nil, nil, nil, nil
	return res
}

// reset sets a run up on s's storage: the candidates in reporting order,
// grouped, and the goal of every leaf.
func (s *synthesizer) reset(h *hierarchy.Hierarchy, opts Options) {
	if opts.MaxSize <= 0 {
		opts.MaxSize = DefaultMaxSize
	}
	k := h.K()
	s.enum.run(h)
	s.cands, s.opts, s.res = s.enum.cands, opts, &Result{}
	s.groupings, s.targets = s.groupings[:0], s.targets[:0]
	s.states, s.sameHash, s.within, s.used = s.states[:0], s.sameHash[:0], s.within[:0], 0
	if s.byHash == nil {
		s.byHash, s.stepOf = map[uint64]int32{}, map[Step]int32{}
	}
	clear(s.byHash)
	clear(s.stepOf)
	s.apps.reset()
	s.ctxs.reset()
	s.appAt, s.appOut, s.nodes, s.edges = s.appAt[:0], s.appOut[:0], s.nodes[:0], s.edges[:0]
	s.target, s.goal = resize(s.target, k), resize(s.goal, k)
	s.off = resize(s.off, (k+63)/64)
	// Programs are reported by size, then in Program.String order. No
	// instruction renders as a prefix of another, so that is the order of
	// the instruction sequences under the instructions' own String order:
	// walking candidates in it emits every size class already sorted. The
	// ops of one instruction render last, so they stay adjacent.
	slices.SortFunc(s.cands, func(a, b candidate) int { return strings.Compare(a.name, b.name) })
	s.instrOf = resize(s.instrOf, len(s.cands))
	for i := range s.instrOf {
		s.instrOf[i] = -1
	}
	w := len(s.off) // a grouping's cover is its window of covers
	s.covers = resize(s.covers, len(s.cands)*w)
	clear(s.covers)
	for i, c := range s.cands {
		in, prev := c.in, s.cands[max(i-1, 0)].in
		if i > 0 && prev.Slice == in.Slice && prev.Form == in.Form && prev.Arg == in.Arg {
			gr := &s.groupings[len(s.groupings)-1]
			gr.end, gr.ops = i+1, gr.ops|bit(in.Op)
			continue
		}
		gr := grouping{first: i, end: i + 1, groups: c.groups, ops: bit(in.Op), cover: s.covers[len(s.groupings)*w:][:w]}
		for _, g := range c.groups {
			for _, u := range g {
				gr.cover[u/64] |= 1 << (u % 64)
			}
		}
		s.groupings = append(s.groupings, gr)
	}
	for u := range s.target {
		// A reduction group shares one goal; its smallest leaf comes first.
		if first := h.Groups[u][0]; first != u {
			s.target[u] = s.target[first]
			continue
		}
		s.target[u] = int32(len(s.targets))
		s.targets = append(s.targets, dsl.TargetState(h, u))
	}
	s.key = s.key[:0] // the targets' ids
	for _, st := range s.targets {
		s.key = append(s.key, s.intern(st))
	}
	for u, t := range s.target {
		s.goal[u] = s.key[t]
	}
	s.empty = s.intern(collective.NewState(k).Seal())
}

// resize returns x with length n, reusing its storage; the elements are
// whatever it held.
func resize[T any](x []T, n int) []T { return slices.Grow(x[:0], n)[:n] }

// intern returns the id of st, a sealed state, adding it if it is new.
func (s *synthesizer) intern(st *collective.State) int32 { return s.internHashed(st, st.Hash()) }

// internHashed is intern with the bucket given: a hash only ever narrows the
// search, Equal decides, so colliding states still get distinct ids.
func (s *synthesizer) internHashed(st *collective.State, hash uint64) int32 {
	prev, ok := s.byHash[hash]
	for id := prev; ok && id >= 0; id = s.sameHash[id] {
		if s.states[id].Equal(st) {
			return id
		}
	}
	if !ok {
		prev = -1
	}
	id := int32(len(s.states))
	s.states, s.sameHash = append(s.states, st), append(s.sameHash, prev)
	s.byHash[hash] = id
	for _, t := range s.targets {
		s.within = append(s.within, st.SubsetOf(t))
	}
	return id
}

// members gathers the states of group g of the context ids.
func (s *synthesizer) members(ids []int32, g []int) []*collective.State {
	s.group = s.group[:0]
	for _, u := range g {
		s.group = append(s.group, s.states[ids[u]])
	}
	return s.group
}

// admits returns the ops of live whose Hoare premise holds on group g of
// the context ids. AllReduce, Reduce and ReduceScatter share one premise
// (ReduceScatter adds divisibility), so one collective.Check decides it
// for all three.
func (s *synthesizer) admits(live opSet, ids []int32, g []int) opSet {
	members := s.members(ids, g)
	if live&reducing != 0 && collective.Check(collective.AllReduce, members) != nil {
		live &^= reducing
	}
	if live&bit(collective.ReduceScatter) != 0 && members[0].NumRows()%len(g) != 0 {
		live &^= bit(collective.ReduceScatter)
	}
	if live&bit(collective.AllGather) != 0 && collective.Check(collective.AllGather, members) != nil {
		live &^= bit(collective.AllGather)
	}
	if live&bit(collective.Broadcast) != 0 && collective.Check(collective.Broadcast, members) != nil {
		live &^= bit(collective.Broadcast)
	}
	return live
}

// apply returns the state ids op, whose premise holds, leaves on the
// members of group g of the context ids, in group order. By the rules
// collective.Post writes, Broadcast hands every member the root's state,
// and Reduce leaves the root what AllReduce leaves every member and the
// rest empty, so neither runs it; for the other three it runs once per
// distinct (op, member states).
func (s *synthesizer) apply(op collective.Op, ids []int32, g []int) []int32 {
	switch op {
	case collective.Broadcast:
		s.out = s.out[:0]
		for range g {
			s.out = append(s.out, ids[g[0]])
		}
		return s.out
	case collective.Reduce:
		sum := s.apply(collective.AllReduce, ids, g)[0]
		s.out = append(s.out[:0], sum)
		for range g[1:] {
			s.out = append(s.out, s.empty)
		}
		return s.out
	default:
		return s.applyOnce(op, ids, g)
	}
}

// applyOnce is apply by collective.Post, cached in apps. admits has proved
// the premise, so it is not checked again. Post writes into spare owned
// states; each result is sealed and looked up, and only one the run has not
// interned yet is kept, so a state is stored once.
func (s *synthesizer) applyOnce(op collective.Op, ids []int32, g []int) []int32 {
	s.key = append(s.key[:0], int32(op))
	for _, u := range g {
		s.key = append(s.key, ids[u])
	}
	if a, added := s.apps.intern(s.key); !added {
		return s.appOut[s.appAt[a]:][:len(g)]
	}
	for len(s.owned) < s.used+len(g) {
		s.owned = append(s.owned, new(collective.State))
	}
	out := s.owned[s.used:][:len(g)]
	n := collective.Post(op, s.members(ids, g), out)
	at := len(s.appOut)
	s.appAt = append(s.appAt, at)
	for i := range g {
		if i >= n {
			s.appOut = append(s.appOut, s.appOut[at+n-1])
			continue
		}
		st, known := out[i], len(s.states)
		id := s.intern(st.Seal())
		if len(s.states) > known {
			// New, so kept: swap it in behind the run's other kept states.
			out[i], s.owned[s.used] = s.owned[s.used], st
			s.used++
		}
		s.appOut = append(s.appOut, id)
	}
	return s.appOut[at:]
}

// step applies cand, whose premise holds on every group, to the context
// ids. It returns the node reached, or false if some leaf would exceed its
// goal or, on the last step, the goal is missed; no node is made then.
func (s *synthesizer) step(ids []int32, cand *candidate, last bool) (int32, bool) {
	s.next = append(s.next[:0], ids...)
	for _, g := range cand.groups {
		out := s.apply(cand.in.Op, ids, g)
		for i, u := range g {
			// Information never shrinks: past its goal, a leaf stays there.
			if !s.within[int(out[i])*len(s.targets)+int(s.target[u])] {
				return 0, false
			}
			s.next[u] = out[i]
		}
	}
	if last && !slices.Equal(s.next, s.goal) {
		return 0, false
	}
	return s.nodeFor(s.next), true
}

// nodeFor returns the node of the context ids, adding it if it is new —
// which under NoMemo it always is.
func (s *synthesizer) nodeFor(ids []int32) int32 {
	var n int32
	added := true
	if s.opts.NoMemo {
		n = s.ctxs.push(ids)
	} else {
		n, added = s.ctxs.intern(ids)
	}
	if !added {
		s.res.MemoHits++
		return n
	}
	s.nodes = append(s.nodes, node{goal: slices.Equal(ids, s.goal)})
	return n
}

// explore expands, breadth first, every context within MaxSize-1 steps of
// the root (node 0), each once: the valid steps of a context do not depend
// on how many steps remain, except that the last one must reach the goal.
// No valid instruction can apply at the goal without exceeding a target,
// so a goal is never expanded.
func (s *synthesizer) explore() {
	lo, hi := int32(0), int32(1) // the nodes first reached at the current depth
	for depth := 0; depth < s.opts.MaxSize && lo < hi; depth++ {
		for n := lo; n < hi; n++ {
			if !s.nodes[n].goal {
				s.expand(n, depth == s.opts.MaxSize-1)
			}
		}
		lo, hi = hi, int32(len(s.nodes))
	}
}

// expand records the valid steps out of node n, grouping by grouping: each
// group's premises are checked once for all the grouping's ops. A last
// step must land on the goal, so it skips the ops that leave a leaf short
// of it and the groupings that miss a leaf off it.
func (s *synthesizer) expand(n int32, last bool) {
	ids := s.ctxs.tuple(n)
	if last {
		clear(s.off)
		for u, id := range ids {
			if id != s.goal[u] {
				s.off[u/64] |= 1 << (u % 64)
			}
		}
	}
	lo := int32(len(s.edges))
	for gi := range s.groupings {
		gr := &s.groupings[gi]
		live := gr.ops
		if last {
			live &^= shortfall
			for w, off := range s.off {
				if off&^gr.cover[w] != 0 {
					live = 0
				}
			}
		}
		s.res.Explored += bits.OnesCount8(uint8(live))
		for _, g := range gr.groups {
			if live == 0 {
				break
			}
			live = s.admits(live, ids, g)
		}
		for ci := gr.first; ci < gr.end && live != 0; ci++ {
			cand := &s.cands[ci]
			if live&bit(cand.in.Op) == 0 {
				continue
			}
			m, ok := s.step(ids, cand, last)
			if !ok {
				continue
			}
			u := cand.groups[0][0]
			shape := dsl.StepShape(s.states[ids[u]], s.states[s.next[u]])
			s.edges = append(s.edges, edge{step: s.stepID(ci, shape), next: m})
		}
	}
	s.nodes[n].lo, s.nodes[n].hi = lo, int32(len(s.edges))
}

// stepID returns the number of the step candidate ci takes where it has
// shape shape, numbering it on first sight.
func (s *synthesizer) stepID(ci int, shape dsl.Shape) int32 {
	if s.instrOf[ci] < 0 {
		s.instrOf[ci] = int32(len(s.res.Instructions))
		s.res.Instructions = append(s.res.Instructions, s.cands[ci].in)
	}
	st := Step{Instr: s.instrOf[ci], Shape: shape}
	id, seen := s.stepOf[st]
	if !seen {
		id = int32(len(s.res.Steps))
		s.res.Steps = append(s.res.Steps, st)
		s.stepOf[st] = id
	}
	return id
}

// emitAll reports every path from the root to a goal of at most MaxSize
// steps, shortest first. pathsTo(n)[v] counts the ways exactly n steps take
// node v to a goal, so the walk only ever enters a prefix that completes,
// and the programs and their step lists are packed into two backing arrays
// sized exactly. A row of zeros ends the table, since every later row is
// zero too: its length follows the longest path, not MaxSize.
func (s *synthesizer) emitAll() {
	s.paths = s.paths[:0]
	programs, steps := 0, 0
	for n := 0; n <= s.opts.MaxSize; n++ {
		s.paths = slices.Grow(s.paths, len(s.nodes))[:(n+1)*len(s.nodes)]
		row, prev, reached := s.pathsTo(n), s.pathsTo(max(n-1, 0)), false
		for v, nd := range s.nodes {
			row[v] = 0
			if n == 0 {
				if nd.goal {
					row[v] = 1
				}
			} else {
				for _, e := range s.edges[nd.lo:nd.hi] {
					row[v] += prev[e.next]
				}
			}
			reached = reached || row[v] > 0
		}
		if !reached {
			s.paths = s.paths[:n*len(s.nodes)]
			break
		}
		programs, steps = programs+row[0], steps+n*row[0]
	}
	s.res.Programs = make([]dsl.Program, 0, programs)
	s.res.StepIDs = make([][]int32, 0, programs)
	s.prog, s.ids = make(dsl.Program, 0, steps), make([]int32, 0, steps)
	for n := range len(s.paths) / len(s.nodes) {
		if s.pathsTo(n)[0] > 0 {
			s.emit(0, n)
		}
	}
}

// pathsTo returns row n of emitAll's path counts.
func (s *synthesizer) pathsTo(n int) []int { return s.paths[n*len(s.nodes):][:len(s.nodes)] }

// emit appends every way to finish the current prefix from node v in exactly
// n steps.
func (s *synthesizer) emit(v int32, n int) {
	if n == 0 {
		lo := len(s.ids)
		for _, id := range s.path {
			s.prog = append(s.prog, s.res.Instructions[s.res.Steps[id].Instr])
		}
		s.ids = append(s.ids, s.path...)
		hi := len(s.ids)
		s.res.Programs = append(s.res.Programs, s.prog[lo:hi:hi])
		s.res.StepIDs = append(s.res.StepIDs, s.ids[lo:hi:hi])
		return
	}
	nd, next := s.nodes[v], s.pathsTo(n-1)
	for _, e := range s.edges[nd.lo:nd.hi] {
		if next[e.next] == 0 {
			continue
		}
		s.path = append(s.path, e.step)
		s.emit(e.next, n-1)
		s.path = s.path[:len(s.path)-1]
	}
}

// BaselineAllReduce is the default implementation the paper compares
// against: a single AllReduce over each full reduction group (one global
// InsideGroup step at the root).
func BaselineAllReduce() dsl.Program {
	return dsl.Program{{Slice: 0, Form: dsl.InsideGroup, Op: collective.AllReduce}}
}
