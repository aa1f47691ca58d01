// Package plan is the parallel, memoized, bound-pruned planning engine
// behind p2.Plan and p2.PlanJoint. Placement matrices stream from the
// enumeration DFS straight into a bounded worker pool (no materialized
// placement set), program synthesis is memoized by the canonical hierarchy
// signature (placements inducing the same reduction hierarchy share one
// synthesis run), and with TopK set the engine prunes provably hopeless
// work: an admissible per-placement lower bound (bounds.go) skips
// synthesis and lowering for placements that cannot enter the incumbent
// top-K, and per-program scoring aborts once a partial step-cost sum
// exceeds the shared threshold. Scoring is a table lookup: the memoized
// synthesis result numbers its distinct steps and carries each program's
// step ids (the universe semantics ran once, in synthesis), and each
// placement binds every distinct instruction to its physical groups once,
// into worker scratch pooled across runs, and scores every step id once.
// Ranking never lowers a program: a candidate keeps its placement's record
// (hierarchy, synthesis result) and Candidate.Lowered binds what the
// program uses and assembles the lowered program from it on first call.
//
// The engine is deterministic: its output is byte-identical to the serial
// reference path (enumerate placements in order, synthesize, rank with a
// stable sort). Candidates are totally ordered by (Predicted, MatrixIdx,
// ProgIdx), which coincides with what a stable sort by Predicted produces
// over the serial append order, so parallel execution — with any worker
// count — and top-K truncation cannot reorder ties. Pruning preserves the
// guarantee because it only ever discards candidates that are strictly
// dominated: a candidate (or whole placement) is dropped only when its
// lower bound exceeds — strictly — a threshold that K already-scored
// candidates are at or below, so the dropped candidate loses every Less
// comparison that matters regardless of tie-breaking. With TopK=0 no
// threshold exists and the engine scores the full cross-product, exactly
// like the serial path.
package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/netsim"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/topology"
)

// Options tune one planning run.
type Options struct {
	// Parallelism bounds the worker pool. 0 means GOMAXPROCS; 1 runs the
	// matrices sequentially (still memoized).
	Parallelism int
	// TopK, when positive, keeps only the K cheapest candidates. The
	// result is exactly the first K entries of the full ranking. TopK also
	// arms the pruning machinery (placement lower bounds, early-exit
	// scoring); 0 keeps the serial-identical full materialization.
	TopK int
	// MaxProgramSize limits synthesized program length (0 = synth default).
	MaxProgramSize int
	// Collapse is the hierarchy same-level factor collapsing option.
	Collapse bool
	// Algos, when it has two or more entries, makes scoring search over
	// the set per step: every lowered step independently runs the
	// algorithm minimizing its predicted time (ties go to the earliest
	// entry), and candidates carry the winning assignment in Algo and
	// StepAlgos.
	// An empty or single-entry slice pins every step to the model's (resp.
	// the single) algorithm (pin).
	Algos []cost.Algorithm
	// Rerank selects measured-in-the-loop planning: with RerankTopK the
	// analytic top-K survivors are measured on the netsim emulator and
	// re-sorted by measured time; with RerankAll every candidate is
	// measured (which disables top-K pruning in the analytic stage, since
	// analytic bounds cannot cut a measured ranking). RerankOff keeps the
	// purely analytic ranking. See rerank.go for the determinism contract.
	Rerank RerankMode
	// SimOpts tunes the emulator used by the re-rank stage (noise, launch
	// overhead, fusion and cross-domain toggles); the zero value is the
	// emulator's defaults. Ignored with Rerank == RerankOff, except that a
	// run refuses options netsim.Options.Validate refuses in every mode.
	SimOpts netsim.Options
}

// workers resolves the worker-pool size.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Candidate is one (placement, program) pair with its predicted runtime
// and its provenance in the enumeration order (for deterministic
// tie-breaking). The indices are int32 so that the struct stays in the
// 112-byte allocation size class.
type Candidate struct {
	MatrixIdx int32
	ProgIdx   int32
	Matrix    *placement.Matrix
	Program   dsl.Program
	Predicted float64
	// Measured is the emulated runtime in seconds, filled by the re-rank
	// stage of a measured-in-the-loop run (Options.Rerank); 0 in purely
	// analytic runs.
	Measured float64
	// Algo is the algorithm of every step StepAlgos does not override: the
	// run's pinned algorithm, or the one algorithm a searched run's winning
	// assignment settled on.
	Algo cost.Algorithm
	// StepAlgos is the winning per-step algorithm assignment (one entry
	// per lowered step) when Options.Algos searched a set and the steps
	// disagree; nil when the run was pinned or the winner was uniform. The
	// engine canonicalizes this once, so consumers render and measure
	// (Algo, StepAlgos) as they are.
	StepAlgos []cost.Algorithm

	low     *lowering                     // the placement's record Lowered assembles from
	lowered atomic.Pointer[lower.Program] // Lowered's result, once assembled
}

// lowering is what the candidates of one (placement, reduction hierarchy)
// pair lower from: the hierarchy, the synthesis result and the physical
// groups of the instructions their lowered programs use. The scorer creates
// it when the placement's first candidate survives; Lowered binds into its
// table, so the record owns its groups and never aliases the worker's
// scratch.
type lowering struct {
	h      *hierarchy.Hierarchy
	res    *synth.Result
	mu     sync.Mutex
	groups [][][]int // by Result instruction, nil until Lowered binds it; guarded by mu
}

// Lowered returns the candidate's lowered program, equal to what
// lower.Lower builds from Program on the placement's hierarchy. It is
// assembled on first call from the placement's record, binding there the
// instructions not yet bound, whose groups the placement's candidates share
// (lower.Step.Groups is read-only), and kept: every later call, concurrent
// ones included, returns the same pointer.
func (c *Candidate) Lowered() *lower.Program {
	if lp := c.lowered.Load(); lp != nil {
		return lp
	}
	low, ids := c.low, c.low.res.StepIDs[c.ProgIdx]
	low.mu.Lock()
	lp := lower.Assemble(c.Program, low.h, func(s int) ([][]int, dsl.Shape) {
		step := low.res.Steps[ids[s]]
		if low.groups[step.Instr] == nil {
			low.groups[step.Instr] = lower.Bind(low.res.Instructions[step.Instr], low.h)
		}
		return low.groups[step.Instr], step.Shape
	})
	low.mu.Unlock()
	if c.lowered.CompareAndSwap(nil, lp) {
		return lp
	}
	return c.lowered.Load()
}

// AlgoString names the candidate's algorithm assignment: one name when
// uniform, a "/"-joined per-step sequence otherwise.
func (c *Candidate) AlgoString() string { return cost.FormatAlgos(c.Algo, c.StepAlgos) }

// Less is the total candidate order: predicted time, then placement
// enumeration order, then program enumeration order. It refines the
// serial path's stable sort by Predicted, so ranking by Less reproduces
// the serial ranking exactly.
func Less(a, b *Candidate) bool {
	//p2:nan-ok predictions are never NaN: validated links yield finite times, down links +Inf
	if a.Predicted != b.Predicted {
		return a.Predicted < b.Predicted
	}
	if a.MatrixIdx != b.MatrixIdx {
		return a.MatrixIdx < b.MatrixIdx
	}
	return a.ProgIdx < b.ProgIdx
}

// Stats reports how much work a run performed, how much the signature
// memo saved, and how much the bound pruning skipped.
type Stats struct {
	// Placements is the number of matrices streamed into the run.
	Placements int
	// SynthRuns counts actual synthesis executions.
	SynthRuns int
	// SynthPrograms and SynthElapsed say what those executions cost: the
	// programs they produced and the sum of their synth.Result.Elapsed (wall
	// time, so it is not part of a served response).
	SynthPrograms int           `json:"-"`
	SynthElapsed  time.Duration `json:"-"`
	// MemoHits counts placements served from the signature memo.
	MemoHits int
	// Candidates counts (placement, program) pairs scored to completion —
	// the planning effort, before any top-K truncation.
	Candidates int
	// PrunedPlacements counts placements cut by the admissible bounds: in
	// single-reduction runs always before any synthesis, lowering or
	// scoring; in joint runs either up front (summed per-reduction bounds
	// above the threshold) or partway through the reductions, once the
	// finished reductions' exact totals plus the remaining reductions'
	// bounds already exceed it.
	PrunedPlacements int
	// PrunedPrograms counts programs whose scoring aborted early: the
	// partial step-cost sum (or, for joint runs, the incumbent
	// per-reduction best) proved the program cannot be kept.
	PrunedPrograms int
	// BoundTightenings counts successful tightenings of the shared
	// threshold (each one makes subsequent pruning more aggressive).
	BoundTightenings int
	// MeasuredCandidates counts emulator runs performed by the re-rank
	// stage of a measured-in-the-loop run (Options.Rerank): the analytic
	// survivors for RerankTopK, the full candidate space for RerankAll —
	// and, in joint runs, one per (kept placement, reduction). 0 in
	// purely analytic runs.
	MeasuredCandidates int
	// RankInversions counts the candidate pairs the analytic and measured
	// rankings order differently (the Kendall-tau distance over the
	// measured candidates) — the run's analytic-vs-measured disagreement.
	// Unlike the pruning counters, it is deterministic: both rankings are
	// pure functions of the request.
	RankInversions int
}

// Planner runs planning requests, sharing a synthesis memo across the
// placements and reductions of each run. Reusing one Planner also shares
// the memo across successive runs (p2.Plan constructs a fresh Planner per
// call, so its memo spans exactly one request). The memo is unbounded by
// default — every distinct (hierarchy signature, program-size limit) pair
// stays resident forever, which a long-lived Planner serving many
// differently-shaped requests may not want; cap it with WithMemoCap. A
// Planner is safe for concurrent use.
type Planner struct {
	mu      sync.Mutex
	memo    map[memoKey]*memoEntry
	memoCap int
}

// Option configures a Planner.
type Option func(*Planner)

// WithMemoCap bounds the synthesis memo to at most n entries. Once full,
// further signatures synthesize without being recorded (correct, just not
// shared), so memory stays bounded while results are unchanged. n <= 0
// means unbounded (the default).
func WithMemoCap(n int) Option {
	return func(p *Planner) { p.memoCap = n }
}

// runCounters tallies one run's memo effectiveness, scoring effort and
// pruning wins.
type runCounters struct {
	synthRuns        atomic.Int64
	synthPrograms    atomic.Int64
	synthElapsed     atomic.Int64
	memoHits         atomic.Int64
	scored           atomic.Int64
	prunedPlacements atomic.Int64
	prunedPrograms   atomic.Int64
}

func (rc *runCounters) stats(placements int, thr *threshold) Stats {
	return Stats{
		Placements:       placements,
		SynthRuns:        int(rc.synthRuns.Load()),
		SynthPrograms:    int(rc.synthPrograms.Load()),
		SynthElapsed:     time.Duration(rc.synthElapsed.Load()),
		MemoHits:         int(rc.memoHits.Load()),
		Candidates:       int(rc.scored.Load()),
		PrunedPlacements: int(rc.prunedPlacements.Load()),
		PrunedPrograms:   int(rc.prunedPrograms.Load()),
		BoundTightenings: int(thr.tightenings.Load()),
	}
}

type memoKey struct {
	sig     string
	maxSize int
}

type memoEntry struct {
	once sync.Once
	res  *synth.Result
}

// New returns an empty Planner.
func New(opts ...Option) *Planner {
	p := &Planner{memo: map[memoKey]*memoEntry{}}
	for _, o := range opts {
		o(p)
	}
	return p
}

// synthesize returns the program set for h, running synthesis at most
// once per (hierarchy signature, maxSize) and serving repeats from the
// memo; rc counts which of the two happened. Concurrent callers with the
// same signature block on the single synthesis instead of duplicating it.
// When the memo cap is reached, unseen signatures synthesize without being
// recorded.
func (p *Planner) synthesize(h *hierarchy.Hierarchy, maxSize int, rc *runCounters) *synth.Result {
	key := memoKey{sig: h.Signature(), maxSize: maxSize}
	p.mu.Lock()
	ent, hit := p.memo[key]
	if !hit {
		ent = &memoEntry{}
		if p.memoCap <= 0 || len(p.memo) < p.memoCap {
			p.memo[key] = ent
		}
	}
	p.mu.Unlock()
	ent.once.Do(func() {
		ent.res = synth.Synthesize(h, synth.Options{MaxSize: maxSize})
	})
	if hit {
		rc.memoHits.Add(1)
	} else {
		rc.synthRuns.Add(1)
		rc.synthPrograms.Add(int64(len(ent.res.Programs)))
		rc.synthElapsed.Add(int64(ent.res.Elapsed))
	}
	return ent.res
}

// threshold is the shared, atomically tightening upper bound on the K-th
// best predicted value kept anywhere in the run. Every worker whose local
// top-K heap is full publishes its worst kept value; since those K kept
// candidates exist globally, the global K-th best is at most the
// published value, so anything provably above the threshold — strictly —
// cannot reach the final top-K no matter how ties break. It starts at
// +Inf (prune nothing) until some worker has K candidates.
type threshold struct {
	bits        atomic.Uint64
	tightenings atomic.Int64
}

func newThreshold() *threshold {
	t := &threshold{}
	t.bits.Store(math.Float64bits(math.Inf(1)))
	return t
}

func (t *threshold) load() float64 { return math.Float64frombits(t.bits.Load()) }

// tighten lowers the threshold to v if v is smaller (atomic min).
func (t *threshold) tighten(v float64) {
	nb := math.Float64bits(v)
	for {
		old := t.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if t.bits.CompareAndSwap(old, nb) {
			t.tightenings.Add(1)
			return
		}
	}
}

// workerState is per-worker scratch: the worker's zero-alloc step-cost
// evaluator (it binds to each model's system), the placement-bound
// scratch reused across every placement the worker prunes, and the
// matrixScorer of the placement the worker scores, whose tables are
// resized and zeroed per placement and reallocated only to grow. The
// bound and the matrixScorer share bounds.reps: each Resets it for its
// placement before reading it, and a worker bounds a placement's
// reductions before it scores any.
type workerState struct {
	sc     cost.Scorer
	bounds boundScratch
	ms     matrixScorer
}

// workerStates pools scratch, never a result: release drops a state's
// references to the run's model, hierarchy, synthesis result, lowering
// record and system before it goes back, and a panicked item's never does.
var workerStates = sync.Pool{New: func() any { return new(workerState) }}

func (ws *workerState) release() {
	ws.sc.Release()
	ws.bounds.reps.Release()
	ws.ms.model, ws.ms.h, ws.ms.res, ws.ms.algos, ws.ms.low = nil, nil, nil, nil, nil
	workerStates.Put(ws)
}

// stepChoice is one memoized step evaluation: the winning algorithm of the
// searched set and its predicted time, once scored is set.
type stepChoice struct {
	algo   cost.Algorithm
	time   float64
	scored bool
}

// matrixScorer scores the programs of one (placement, reduction hierarchy)
// pair as table lookups indexed by the synthesis result's numbering: zero
// and all hold each instruction's groups (lower.AppendBind into the
// worker's storage, once per instruction — tens per placement against
// hundreds of program steps) and steps each step's evaluation, so programs
// sharing a prefix — or merely an instruction at the same shape — share
// both the binding and the step-time evaluations, which dominate serial
// planning at scale. A Ring, Chain or Tree step is scored from replica 0's
// groups (cost.Scorer.StepTimeReplicated), so a placement binds its
// physical groups only for the halving-doubling steps it scores.
type matrixScorer struct {
	sc    *cost.Scorer
	model *cost.Model
	h     *hierarchy.Hierarchy
	res   *synth.Result
	algos []cost.Algorithm // the searched set; one entry pins every step
	reps  *cost.Replicas   // the placement's replicas, by level: the worker's bounds.reps
	// zero binds replica 0 and all every replica (the physical groups).
	zero, all binding
	low       *lowering       // nil until a candidate of the placement survives
	steps     []stepChoice    // by Result step id
	views     []cost.Schedule // evalStep's scratch, one per searched algorithm
	// stepAlgos is the per-step assignment scratch of a searching run (nil
	// when pinned), sized to the longest program, whatever the size limit;
	// a surviving candidate copies its prefix out.
	stepAlgos []cost.Algorithm
}

// zeroed returns s resized to n zero entries, reusing its array when it is
// large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

func newMatrixScorer(ws *workerState, model *cost.Model, h *hierarchy.Hierarchy, res *synth.Result, opts Options) *matrixScorer {
	ms := &ws.ms
	ms.sc, ms.model, ms.h, ms.res, ms.algos, ms.reps = &ws.sc, model, h, res, opts.Algos, &ws.bounds.reps
	ms.reps.Reset(model.Sys, h.ReplicaOffsets())
	ms.zero.reset(len(res.Instructions))
	ms.all.reset(len(res.Instructions))
	ms.low = nil
	ms.steps = zeroed(ms.steps, len(res.Steps))
	ms.views = zeroed(ms.views, len(opts.Algos))
	if len(ms.algos) > 1 {
		// Programs come shortest first: the last is the longest. At least
		// DefaultMaxSize entries keep a searching run's scratch non-nil
		// even when no program has a step.
		longest := 0
		if n := len(res.Programs); n > 0 {
			longest = len(res.Programs[n-1])
		}
		ms.stepAlgos = zeroed(ms.stepAlgos, max(longest, synth.DefaultMaxSize))
	} else {
		ms.stepAlgos = nil
	}
	return ms
}

// binding is a table of instructions' groups by Result instruction, nil
// until bound, its entries slices of phys and flat; all three are the
// worker's scratch, reused across placements and never seen by a candidate.
type binding struct {
	groups [][][]int
	phys   [][]int
	flat   []int
}

func (b *binding) reset(instructions int) {
	b.groups = zeroed(b.groups, instructions)
	b.phys, b.flat = b.phys[:0], b.flat[:0]
}

// bind returns the groups of instruction i's first reps replicas under the
// scorer's placement, binding it on first use. The placement's first bind
// makes room for every instruction's groups, so the storage regrows at most
// once.
func (b *binding) bind(ms *matrixScorer, i int32, reps int) [][]int {
	if b.groups[i] != nil {
		return b.groups[i]
	}
	if len(b.phys) == 0 {
		groups, members := 0, 0
		for _, in := range ms.res.Instructions {
			l := in.Layout(ms.h)
			groups, members = groups+l.N, members+l.N*l.Size
		}
		b.phys, b.flat = slices.Grow(b.phys, groups*reps), slices.Grow(b.flat, members*reps)
	}
	n := len(b.phys)
	b.phys, b.flat = lower.AppendBind(b.phys, b.flat, ms.res.Instructions[i], ms.h, reps)
	b.groups[i] = b.phys[n:]
	return b.groups[i]
}

// stepTime returns one step's memoized evaluation.
//
//p2:zeroalloc
func (ms *matrixScorer) stepTime(id int32) stepChoice {
	if ch := ms.steps[id]; ch.scored {
		return ch
	}
	return ms.evalStep(id)
}

// evalStep is stepTime's cold path: take the argmin over the algorithm set
// (ties to the earliest entry, matching cost.Model.BestStepAlgos; a pinned
// run's set has one entry), scoring a counted (Ring, Chain or Tree)
// schedule from replica 0's groups and a halving-doubling one from the
// physical groups, bound only when the placement has several replicas. The
// Scorer reads an algorithm only through cost.ScheduleOf, so an algorithm
// whose analytic view equals an earlier entry's would score the earlier
// entry's time and lose the tie: it is skipped.
func (ms *matrixScorer) evalStep(id int32) stepChoice {
	step := ms.res.Steps[id]
	st := lower.Step{Op: ms.res.Instructions[step.Instr].Op, Groups: ms.zero.bind(ms, step.Instr, 1), Rows: step.Shape.Rows, K: ms.h.K()}
	n, perDevice := st.GroupSize(), st.FracIn()*ms.model.Bytes
	ch := stepChoice{scored: true}
	for i, a := range ms.algos {
		ms.views[i] = cost.ScheduleOf(st.Op, a, n, perDevice)
		if slices.ContainsFunc(ms.views[:i], ms.views[i].SameAnalytic) {
			continue
		}
		var t float64
		if ms.views[i].Pattern.Counted() {
			t = ms.sc.StepTimeReplicated(ms.model, st, ms.reps, a)
		} else {
			phys := st
			if reps := ms.h.Replicas(); reps > 1 {
				phys.Groups = ms.all.bind(ms, step.Instr, reps)
			}
			t = ms.sc.StepTimeAlgo(ms.model, phys, a)
		}
		if i == 0 || t < ch.time {
			ch.algo, ch.time = a, t
		}
	}
	ms.steps[id] = ch
	return ch
}

// scoreProgram accumulates program pi's predicted time (and per-step
// algorithm assignment when searching, a uniform one folded into
// Candidate.Algo) in exactly the serial order — each step a lookup in the
// step table — and abandons it as soon as cutoff
// reports the partial sum disqualifies it (nil is returned). The caller's
// cutoff must only ever cut programs whose final value provably cannot
// matter: partial sums never exceed the final value because step costs are
// non-negative. A surviving program is not lowered: its candidate points at
// the placement's lowering record (Candidate.Lowered), which the first
// survivor creates.
func (ms *matrixScorer) scoreProgram(mi, pi int, m *placement.Matrix, cutoff func(partial float64) bool) *Candidate {
	predicted, ok := ms.score(ms.res.StepIDs[pi], cutoff)
	if !ok {
		return nil
	}
	if ms.low == nil {
		ms.low = &lowering{h: ms.h, res: ms.res, groups: make([][][]int, len(ms.res.Instructions))}
	}
	prog := ms.res.Programs[pi]
	c := &Candidate{
		MatrixIdx: int32(mi),
		ProgIdx:   int32(pi),
		Matrix:    m,
		Program:   prog,
		Predicted: predicted,
		Algo:      ms.model.Algo,
		low:       ms.low,
	}
	if ms.stepAlgos != nil {
		assign := ms.stepAlgos[:len(prog)]
		if a, ok := cost.UniformAlgo(assign); ok {
			c.Algo = a
		} else {
			c.StepAlgos = slices.Clone(assign)
		}
	}
	return c
}

// score is scoreProgram's step loop over a program's step ids. Once the
// placement's tables are warm a program — in particular one the cutoff
// prunes — costs indexed loads and nothing else.
//
//p2:zeroalloc
func (ms *matrixScorer) score(ids []int32, cutoff func(partial float64) bool) (float64, bool) {
	predicted := 0.0
	for si, id := range ids {
		ch := ms.stepTime(id)
		if ms.stepAlgos != nil {
			ms.stepAlgos[si] = ch.algo
		}
		predicted += ch.time
		if cutoff(predicted) {
			return 0, false
		}
	}
	return predicted, true
}

// scorePrograms synthesizes (memoized) and scores every program of one
// (placement, reduction hierarchy) pair, in synthesis order (size, then
// lexicographic — the same order the serial path appends them in), and
// emits each program the cutoff lets through as soon as it is scored. Step
// times come from the one evaluator (cost.Scorer) the Model's methods
// borrow too, and the per-program sum runs over them in the same order as
// cost.Model.BestStepAlgos (resp. ProgramTime), so predictions are
// bit-identical to the serial brute-force path. cutoff(0) before a program
// cuts it and every later one, as their first steps would. The two request
// shapes differ only in cutoff and emit: a single reduction cuts against
// the run's top-K threshold and emits into the worker heap (which can
// tighten the threshold mid-placement); a joint reduction cuts against its
// own incumbent best and keeps the minimum (DESIGN.md §6.1, cut 3).
//
// Cancellation is cooperative at program granularity: ctx is consulted
// between programs and the first observed cancellation returns ctx.Err()
// with the placement partially scored (every candidate already emitted is
// valid and ranked). ctx is deliberately NOT threaded into synthesize —
// memo entries complete under sync.Once exactly once, so a cancelled
// request can never leave a poisoned half-built entry for later requests.
func (p *Planner) scorePrograms(ctx context.Context, ws *workerState, mi int, m *placement.Matrix, h *hierarchy.Hierarchy, model *cost.Model, opts Options, rc *runCounters, cutoff func(partial float64) bool, emit func(*Candidate)) error {
	res := p.synthesize(h, opts.MaxProgramSize, rc)
	ms := newMatrixScorer(ws, model, h, res, opts)
	scored := 0
	for pi := range res.Programs {
		if err := ctx.Err(); err != nil {
			rc.scored.Add(int64(scored))
			return err
		}
		if cutoff(0) {
			rc.prunedPrograms.Add(int64(len(res.Programs) - pi))
			break
		}
		c := ms.scoreProgram(mi, pi, m, cutoff)
		if c == nil {
			rc.prunedPrograms.Add(1)
			continue
		}
		scored++
		emit(c)
	}
	rc.scored.Add(int64(scored))
	return nil
}

// RunStreamCtx ranks every (matrix, program) candidate for one reduction
// request. stream (typically placement.Iterate) yields matrices in
// canonical enumeration order and the engine feeds them to the worker pool
// as they appear, so the full placement set never resides in memory. The
// returned slice is sorted by Less and truncated to TopK when set.
//
// With Options.Rerank set, the analytic ranking is then measured on the
// emulator and re-sorted by measured time (rerank.go). The cancellation
// and anytime contract is run's.
func (p *Planner) RunStreamCtx(ctx context.Context, stream func(func(*placement.Matrix) bool) error, reduceAxes []int, model *cost.Model, opts Options) ([]*Candidate, Stats, error) {
	model, opts.Algos = pin(model, opts.Algos)
	return run(ctx, opts, stream, p.single(ctx, reduceAxes, model, opts))
}

// single is the single-reduction shape. With TopK armed a placement is
// skipped outright when its admissible bound exceeds the threshold, and a
// program is abandoned once its partial cost sum does. Neither cut can
// remove a final top-K member: the bound never exceeds any program's true
// cost, partial sums never exceed the total (step costs are
// non-negative), and both cuts require strictly exceeding a value that K
// scored candidates already meet. The program cut compares max(partial,
// bound), so the placement cut is re-checked after synthesis, against a
// threshold other workers may have tightened meanwhile.
func (p *Planner) single(ctx context.Context, reduceAxes []int, model *cost.Model, opts Options) shape[*Candidate] {
	return shape[*Candidate]{
		produce: func(ws *workerState, mi int, m *placement.Matrix, prune bool, rc *runCounters, thr *threshold, emit func(*Candidate)) error {
			h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, reduceAxes, hierarchy.Options{Collapse: opts.Collapse})
			if err != nil {
				return err
			}
			bound := 0.0
			if prune {
				if bound = ws.bounds.placementBound(model.Sys, h, model.Bytes); bound > thr.load() {
					rc.prunedPlacements.Add(1)
					return nil
				}
			}
			return p.scorePrograms(ctx, ws, mi, m, h, model, opts, rc,
				func(partial float64) bool { return prune && max(partial, bound) > thr.load() }, emit)
		},
		less: Less,
		key:  func(c *Candidate) float64 { return c.Predicted },
		measure: func(ctx context.Context, cands []*Candidate) int {
			_ = Measure(ctx, cands, model, opts) // its only error is ctx.Err(), which rerank reports
			return len(cands)
		},
		measured:  func(c *Candidate) float64 { return c.Measured },
		unmeasure: func(c *Candidate) { c.Measured = 0 },
	}
}

// JointSpec is one reduction of a request as Resolve resolves it: what the
// engine plans, alone or as one reduction of a joint request.
type JointSpec struct {
	// ReduceAxes are the axis indices reduced over.
	ReduceAxes []int
	// Model is the reduction's cost model: system, pinned (or, when Algos
	// searches a set, base) algorithm and payload.
	Model *cost.Model
	// Weight scales the reduction's predicted time in the joint total (the
	// per-step occurrence count).
	Weight float64
	// Collapse, MaxProgramSize and Algos are the reduction's Options (see
	// there); each reduction of a joint request may search its own
	// algorithm set.
	Collapse       bool
	MaxProgramSize int
	Algos          []cost.Algorithm
}

// Reduction is one reduction as a caller requests it, before Resolve: the
// fields of p2.Request and p2.Reduction that planning defaults or refuses.
type Reduction struct {
	Axes           []int
	ReduceAxes     []int
	Algo           cost.Algorithm
	Algos          []cost.Algorithm
	Bytes, Count   float64
	MaxProgramSize int
}

// Resolve is the one request resolution behind p2.Plan, p2.PlanJoint, eval,
// the CLI and the daemon. It decides r's payload (non-positive or NaN is the
// paper default for sys), count (likewise 1), program-size limit, algorithm
// set (pin) and collapse flag (multi-axis reductions collapse same-level
// factors, §2.5) once, and refuses a +Inf payload or count and a reduction
// group of more than synth.MaxUniverse devices.
func Resolve(sys *topology.System, r Reduction) (JointSpec, error) {
	if n := groupSize(r.Axes, r.ReduceAxes); n > synth.MaxUniverse {
		return JointSpec{}, fmt.Errorf("a reduction group of %d devices is over the synthesis limit of %d", n, synth.MaxUniverse)
	}
	if math.IsInf(r.Bytes, 1) {
		return JointSpec{}, errors.New("payload Bytes must be finite, not +Inf")
	}
	if math.IsInf(r.Count, 1) {
		return JointSpec{}, errors.New("occurrence Count must be finite, not +Inf")
	}
	// NaN-proof forms: NaN, like zero and negatives, takes the default
	// instead of planning on NaN traffic, which every max-scan skips.
	if !(r.Bytes > 0) {
		r.Bytes = cost.DefaultPayload(sys)
	}
	if !(r.Count > 0) {
		r.Count = 1
	}
	if r.MaxProgramSize <= 0 {
		r.MaxProgramSize = synth.DefaultMaxSize
	}
	model, algos := pin(&cost.Model{Sys: sys, Algo: r.Algo, Bytes: r.Bytes}, r.Algos)
	return JointSpec{ReduceAxes: r.ReduceAxes, Model: model, Weight: r.Count,
		Collapse: len(r.ReduceAxes) > 1, MaxProgramSize: r.MaxProgramSize, Algos: algos}, nil
}

// groupSize is the device count of one reduction group, the product of the
// reduced axes' sizes, or the first factor or partial product past
// synth.MaxUniverse. An index out of range or repeated, and a size below
// one, are left to the planner to refuse.
func groupSize(axes, reduce []int) int {
	n := 1
	for i, a := range reduce {
		if a < 0 || a >= len(axes) || axes[a] < 1 || slices.Contains(reduce[:i], a) {
			continue
		}
		if axes[a] > synth.MaxUniverse {
			return axes[a]
		}
		if n *= axes[a]; n > synth.MaxUniverse {
			return n
		}
	}
	return n
}

// pin is the algorithm-set rule, applied by Resolve and again by
// RunStreamCtx for hand-built options: an empty set is the model's algorithm
// alone, and a one-entry set pins the model to that entry.
func pin(model *cost.Model, algos []cost.Algorithm) (*cost.Model, []cost.Algorithm) {
	if len(algos) == 0 {
		return model, []cost.Algorithm{model.Algo}
	}
	if len(algos) == 1 && model.Algo != algos[0] {
		model = &cost.Model{Sys: model.Sys, Algo: algos[0], Bytes: model.Bytes}
	}
	return model, algos
}

// Options projects run options onto the reduction: its collapse flag,
// program-size limit and algorithm set.
func (s JointSpec) Options(opts Options) Options {
	opts.Collapse, opts.MaxProgramSize, opts.Algos = s.Collapse, s.MaxProgramSize, s.Algos
	return opts
}

// JointCandidate is the joint outcome for one placement: the best
// program per reduction and the weighted total.
type JointCandidate struct {
	MatrixIdx    int
	Matrix       *placement.Matrix
	PerReduction []*Candidate
	Costs        []float64
	Total        float64
	// Measured mirrors Costs with emulated seconds — Measured[i] is
	// weight_i × the emulated time of PerReduction[i] — and MeasuredTotal
	// their sum, filled by the re-rank stage of a measured-in-the-loop
	// run (Options.Rerank); nil/0 in purely analytic runs.
	Measured      []float64
	MeasuredTotal float64
}

// jointLess orders joint candidates by total, breaking ties by placement
// enumeration order (matching the serial stable sort).
func jointLess(a, b *JointCandidate) bool {
	//p2:nan-ok totals are weighted sums of never-NaN predictions (finite or +Inf)
	if a.Total != b.Total {
		return a.Total < b.Total
	}
	return a.MatrixIdx < b.MatrixIdx
}

// ErrNoPrograms reports that a reduction admits no valid program under a
// placement, mirroring the serial path's failure.
type ErrNoPrograms struct {
	ReduceAxes []int
	Matrix     *placement.Matrix
}

// Error formats the failure with its reduction axes and placement.
func (e *ErrNoPrograms) Error() string {
	return fmt.Sprintf("plan: no valid programs for reduction axes %v on matrix %v", e.ReduceAxes, e.Matrix)
}

// RunJointCtx scores every placement stream yields against all reductions
// (each resolved by Resolve) jointly, fanning placements out over the
// worker pool. Synthesis is memoized across both placements and
// reductions. The result is sorted by (Total, MatrixIdx) and truncated to
// TopK placements when set.
//
// With Options.Rerank set, the kept placements' per-reduction winners are
// measured on the emulator and the placements re-sorted by summed
// weighted measured time (rerank.go). The cancellation and anytime
// contract is run's; a joint candidate only exists once every reduction
// of its placement is scored, so an anytime result holds completed
// placements only.
func (p *Planner) RunJointCtx(ctx context.Context, stream func(func(*placement.Matrix) bool) error, reds []JointSpec, opts Options) ([]*JointCandidate, Stats, error) {
	return run(ctx, opts, stream, p.joint(ctx, reds, opts))
}

// joint is the joint shape. Each reduction's winner is the argmin of its
// programs, found by scorePrograms with the incumbent as the cutoff: a
// program is abandoned once its partial cost reaches the incumbent's
// total, since its final cost can only be ≥ the partial and at equality
// it still loses the (MatrixIdx, ProgIdx) tie-break to the earlier
// incumbent. That cut needs no threshold and is always on. With TopK
// armed, a placement is also skipped when its summed per-reduction bounds
// exceed the shared total threshold — up front, before any synthesis, and
// again after each reduction, with the finished reductions' exact totals
// in place of their bounds.
func (p *Planner) joint(ctx context.Context, reds []JointSpec, opts Options) shape[*JointCandidate] {
	return shape[*JointCandidate]{
		produce: func(ws *workerState, mi int, m *placement.Matrix, prune bool, rc *runCounters, thr *threshold, emit func(*JointCandidate)) error {
			hs := make([]*hierarchy.Hierarchy, len(reds))
			bounds := make([]float64, len(reds))
			for ri, red := range reds {
				h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red.ReduceAxes, hierarchy.Options{Collapse: red.Collapse})
				if err != nil {
					return err
				}
				hs[ri] = h
				if prune {
					bounds[ri] = red.Weight * ws.bounds.placementBound(red.Model.Sys, h, red.Model.Bytes)
				}
			}
			jc := &JointCandidate{MatrixIdx: mi, Matrix: m}
			for ri, red := range reds {
				if prune {
					// The reductions still to score cost at least their
					// bounds, so a placement already provably above the
					// threshold cannot enter the top-K placements. The
					// remaining bounds are summed afresh, in order: a running
					// difference could round above the true sum and wrongly
					// prune.
					rest := 0.0
					for _, b := range bounds[ri:] {
						rest += b
					}
					if jc.Total+rest > thr.load() {
						rc.prunedPlacements.Add(1)
						return nil
					}
				}
				var best *Candidate
				err := p.scorePrograms(ctx, ws, mi, m, hs[ri], red.Model, red.Options(opts), rc,
					func(partial float64) bool { return best != nil && partial >= best.Predicted },
					func(c *Candidate) {
						if best == nil || Less(c, best) {
							best = c
						}
					})
				if err != nil {
					return err
				}
				if best == nil {
					return &ErrNoPrograms{ReduceAxes: red.ReduceAxes, Matrix: m}
				}
				jc.PerReduction = append(jc.PerReduction, best)
				jc.Costs = append(jc.Costs, red.Weight*best.Predicted)
				jc.Total += red.Weight * best.Predicted
			}
			emit(jc)
			return nil
		},
		less: jointLess,
		key:  func(jc *JointCandidate) float64 { return jc.Total },
		// Candidate.Measured carries each winner's raw emulated seconds and
		// JointCandidate.Measured the weighted entries, mirroring Costs.
		measure: func(ctx context.Context, jcs []*JointCandidate) int {
			cands := make([]*Candidate, len(jcs))
			for ri, red := range reds {
				for i, jc := range jcs {
					cands[i] = jc.PerReduction[ri]
				}
				_ = Measure(ctx, cands, red.Model, red.Options(opts)) // its only error is ctx.Err(), which rerank reports
			}
			for _, jc := range jcs {
				jc.Measured, jc.MeasuredTotal = make([]float64, len(reds)), 0
				for ri, red := range reds {
					jc.Measured[ri] = red.Weight * jc.PerReduction[ri].Measured
					jc.MeasuredTotal += jc.Measured[ri]
				}
			}
			return len(jcs) * len(reds)
		},
		measured: func(jc *JointCandidate) float64 { return jc.MeasuredTotal },
		unmeasure: func(jc *JointCandidate) {
			jc.Measured, jc.MeasuredTotal = nil, 0
			for _, c := range jc.PerReduction {
				c.Measured = 0
			}
		},
	}
}

// shape is what sets the engine's two request shapes apart: a single
// reduction ranks *Candidate, a joint request *JointCandidate. Everything
// else about a planning run is run's.
type shape[T any] struct {
	// produce plans one placement, emitting what it keeps. prune reports
	// whether the analytic stage prunes at all (TopK set, and not
	// disarmed by RerankAll); thr is the run's shared top-K threshold.
	produce func(ws *workerState, mi int, m *placement.Matrix, prune bool, rc *runCounters, thr *threshold, emit func(T)) error
	// less is the analytic total order and key its leading sort key, the
	// unit the threshold is kept in.
	less func(a, b T) bool
	key  func(T) float64
	// measure emulates every item for the re-rank stage and returns the
	// number of emulator runs; measured reads an item's measured sort key
	// and unmeasure clears everything measure filled in.
	measure   func(ctx context.Context, items []T) int
	measured  func(T) float64
	unmeasure func(T)
}

// run is the one planning loop behind both request shapes: fan the
// placements out over the worker pool (fanOut), merge the workers'
// top-K heaps, re-rank the merge by measured time when Options.Rerank
// asks (rerank.go), and truncate to TopK. RerankAll runs the analytic
// stage unpruned — analytic bounds cannot cut a measured ranking — so
// every item exists to be measured, and truncates only after the
// measured sort.
//
// An uncancelled context changes nothing (the checks observe nil). On
// cancellation or deadline expiry the run stops cooperatively — between
// programs, between measured items, and every few emulator event-loop
// iterations — and returns an *anytime* result alongside ctx.Err(): the
// merged per-worker heaps, sorted by the analytic order and truncated to
// TopK. Every returned item is fully scored and correctly ordered among
// those returned; the set is the best of what was scored before the cut,
// not necessarily a prefix of the full ranking. If cancellation lands
// during the re-rank, the measured fields are cleared and the analytic
// order is returned, so a partial result never mixes measured and
// unmeasured sort keys. Non-context errors return (nil, stats, err).
func run[T any](ctx context.Context, opts Options, stream func(func(*placement.Matrix) bool) error, sh shape[T]) ([]T, Stats, error) {
	if err := opts.SimOpts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	analytic := opts
	if opts.Rerank == RerankAll {
		analytic.TopK = 0
	}
	prune := analytic.TopK > 0
	var rc runCounters
	thr := newThreshold()
	perWorker, produced, err := fanOut(ctx, analytic, stream, func(ws *workerState, mi int, m *placement.Matrix, emit func(T)) error {
		return sh.produce(ws, mi, m, prune, &rc, thr, emit)
	}, sh.less, sh.key, thr)
	stats := rc.stats(produced, thr)
	if err != nil {
		return nil, stats, err
	}
	items := mergeRanked(perWorker, analytic.TopK, sh.less)
	err = ctx.Err()
	if err == nil && opts.Rerank != RerankOff {
		err = rerank(ctx, items, sh, &stats)
	}
	if opts.TopK > 0 && len(items) > opts.TopK {
		items = items[:opts.TopK]
	}
	return items, stats, err
}

// errRecorder tracks the lowest-indexed failure of a run. Once any item
// fails, the producer stops streaming new items and workers discard
// in-flight items with a higher index than the recorded failure — items
// with a lower index still run, because one of them could fail and the
// serial path would have reported that earlier error. Items are streamed
// in index order, so every index below the final winner was dispatched
// (and therefore processed) before the run drains: the reported error is
// the lowest-indexed failure at every worker count, with no wasted work
// past it.
type errRecorder struct {
	failed atomic.Bool
	mu     sync.Mutex
	idx    int
	err    error
}

func (r *errRecorder) record(i int, err error) {
	r.mu.Lock()
	if r.err == nil || i < r.idx {
		r.idx, r.err = i, err
	}
	r.mu.Unlock()
	r.failed.Store(true)
}

// discard reports whether item i cannot influence the reported error.
func (r *errRecorder) discard(i int) bool {
	if !r.failed.Load() {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err != nil && i > r.idx
}

func (r *errRecorder) get() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// PanicError is a panic recovered inside a planning worker: the crashing
// placement fails its own request with a diagnosable error — carrying the
// worker's stack — instead of unwinding through whatever process shares
// the engine (notably the p2 serve daemon, which maps it to one 500).
type PanicError struct {
	// Index is the enumeration index of the placement being planned.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack captured at recovery.
	Stack []byte
}

// Error formats the panic without the stack (callers wanting the stack
// unwrap the concrete type).
func (e *PanicError) Error() string {
	return fmt.Sprintf("plan: panic while planning placement %d: %v", e.Index, e.Value)
}

// IsCtxErr reports whether err is a context cancellation or deadline
// expiry — the errors that mean "the caller gave up", not "the request
// is bad" — possibly wrapped.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fanOut streams placements from the producer through the option-bounded
// worker pool. Each worker folds emitted items into its top-K bounded
// heap the moment they are scored and publishes its full heap's worst
// value to the shared threshold, so pruning tightens mid-placement, not
// just between placements. It returns each worker's kept items
// (unsorted), the number of placements streamed, and — deterministically
// — the lowest-indexed error.
//
// Cancellation stops the producer and makes workers drain the channel
// without planning; context errors bubbling out of produce are *not*
// recorded (they carry no index-determinism obligation — the caller
// re-derives ctx.Err() itself), so the kept heaps survive as the anytime
// result. A panic inside produce is recovered per item into a
// *PanicError and recorded like any other failure, keeping the other
// workers — and the process — alive.
func fanOut[T any](ctx context.Context, opts Options, stream func(func(*placement.Matrix) bool) error,
	produce func(ws *workerState, i int, m *placement.Matrix, emit func(T)) error,
	less func(a, b T) bool, pred func(T) float64, thr *threshold) ([][]T, int, error) {

	workers := opts.workers()
	type item struct {
		idx int
		m   *placement.Matrix
	}
	buf := 2 * workers
	if buf > 256 {
		buf = 256
	}
	ch := make(chan item, buf)
	var rec errRecorder

	runItem := func(ws *workerState, i int, m *placement.Matrix, emit func(T)) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return produce(ws, i, m, emit)
	}

	var mu sync.Mutex
	var perWorker [][]T
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		ws := workerStates.Get().(*workerState)
		keep := newTopK(opts.TopK, less)
		emit := func(x T) {
			keep.push(x)
			if opts.TopK > 0 {
				if worst, ok := keep.worst(); ok {
					thr.tighten(pred(worst))
				}
			}
		}
		for it := range ch {
			if rec.discard(it.idx) || ctx.Err() != nil {
				continue
			}
			err := runItem(ws, it.idx, it.m, emit)
			if _, panicked := err.(*PanicError); panicked {
				ws = new(workerState) // a panic can leave the old one dirty: it is dropped
			}
			if err != nil && !IsCtxErr(err) {
				rec.record(it.idx, err)
			}
		}
		ws.release()
		mu.Lock()
		//p2:order-independent per-worker keeps are merged by a full deterministic sort in mergeRanked
		perWorker = append(perWorker, keep.items())
		mu.Unlock()
	}

	// The producer spawns workers lazily, one per streamed item up to the
	// pool bound, so the goroutine count is min(workers, placements) — an
	// absurd Parallelism costs nothing on a small request, and a
	// single-matrix request uses one worker.
	produced := 0
	var streamErr error
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		defer close(ch)
		streamErr = stream(func(m *placement.Matrix) bool {
			if rec.failed.Load() || ctx.Err() != nil {
				return false
			}
			if produced < workers {
				wg.Add(1) // Add happens before close(prodDone); Wait runs only after <-prodDone, so the count is always ahead of Wait
				go worker()
			}
			ch <- item{produced, m} // workers drain ch to close even after cancellation (the stream callback stops producing via ctx.Err), so this send always completes
			produced++
			return true
		})
	}()

	<-prodDone
	wg.Wait()
	if err := rec.get(); err != nil {
		return nil, produced, err
	}
	if streamErr != nil && !IsCtxErr(streamErr) {
		return nil, produced, streamErr
	}
	return perWorker, produced, nil
}

// mergeRanked merges the per-worker keeps into the final ranking.
func mergeRanked[T any](perWorker [][]T, topK int, less func(a, b T) bool) []T {
	var all []T
	for _, cs := range perWorker {
		all = append(all, cs...)
	}
	slices.SortFunc(all, func(a, b T) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
	if topK > 0 && len(all) > topK {
		all = all[:topK]
	}
	return all
}
