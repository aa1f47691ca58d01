// Package plan is the parallel, memoized, bound-pruned planning engine
// behind p2.Plan and p2.PlanJoint. Placement matrices stream from the
// enumeration DFS straight into a bounded worker pool (no materialized
// placement set), program synthesis is memoized by the canonical hierarchy
// signature (placements inducing the same reduction hierarchy share one
// synthesis run), and with TopK set the engine prunes provably hopeless
// work: an admissible per-placement lower bound (bounds.go) skips
// synthesis and lowering for placements that cannot enter the incumbent
// top-K, and per-program scoring aborts once a partial step-cost sum
// exceeds the shared threshold. Lowering itself is a table lookup: the
// memoized synthesis result carries each program's step shapes (the
// universe semantics ran once, in synthesis) and each placement binds every
// distinct instruction to its physical groups once.
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
	"sort"
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
	// entry), and candidates carry the winning assignment in StepAlgos.
	// Empty or single-entry slices pin every step to the model's (resp.
	// the single) algorithm, exactly as before the search existed.
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
	// emulator's defaults. Ignored with Rerank == RerankOff.
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
// tie-breaking).
type Candidate struct {
	MatrixIdx int
	ProgIdx   int
	Matrix    *placement.Matrix
	Program   dsl.Program
	Lowered   *lower.Program
	Predicted float64
	// Measured is the emulated runtime in seconds, filled by the re-rank
	// stage of a measured-in-the-loop run (Options.Rerank); 0 in purely
	// analytic runs.
	Measured float64
	// StepAlgos is the winning per-step algorithm assignment (one entry
	// per lowered step) when Options.Algos enabled the search; nil when
	// the run was pinned to a single algorithm.
	StepAlgos []cost.Algorithm
}

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

// workerState is per-worker scratch: reusable zero-alloc scorers, one per
// distinct system seen (a run almost always has exactly one), the
// placement-bound scratch reused across every placement the worker prunes,
// and the per-placement tables of matrixScorer, cleared (not reallocated)
// for each placement the worker scores.
type workerState struct {
	scorers map[*topology.System]*cost.Scorer
	bounds  boundScratch
	bound   map[dsl.Instruction][][]int
	steps   map[stepKey]stepChoice
}

func (ws *workerState) scorer(sys *topology.System) *cost.Scorer {
	if sc, ok := ws.scorers[sys]; ok {
		return sc
	}
	if ws.scorers == nil {
		ws.scorers = map[*topology.System]*cost.Scorer{}
	}
	sc := cost.NewScorer(sys)
	ws.scorers[sys] = sc
	return sc
}

// stepKey identifies a lowered step up to cost equivalence within one
// placement: the instruction determines Op and the device groups, rows the
// payload fraction. RowsOut and K are not read by StepTime (K is constant
// per hierarchy anyway).
type stepKey struct {
	in   dsl.Instruction
	rows int
}

// stepChoice is one memoized step evaluation: the winning algorithm of the
// searched set and its predicted time.
type stepChoice struct {
	algo cost.Algorithm
	time float64
}

// matrixScorer scores the programs of one (placement, reduction hierarchy)
// pair as table lookups. bound holds each distinct instruction's physical
// groups (lower.Bind, once per instruction — tens per placement against
// hundreds of program steps) and steps each (instruction, rows) pair's
// evaluation, so programs sharing a prefix — or merely an instruction at
// the same payload fraction — share both the binding and the StepTime
// evaluations, which dominate serial planning at scale. Both tables are
// the worker's, so a worker has one matrixScorer live at a time.
type matrixScorer struct {
	sc    *cost.Scorer
	model *cost.Model
	h     *hierarchy.Hierarchy
	algos []cost.Algorithm // the searched set; one entry pins every step
	bound map[dsl.Instruction][][]int
	steps map[stepKey]stepChoice
	// stepAlgos is the per-step assignment scratch of a searching run (nil
	// when pinned), sized to the longest program; a surviving candidate
	// copies its prefix out.
	stepAlgos []cost.Algorithm
}

func newMatrixScorer(ws *workerState, model *cost.Model, h *hierarchy.Hierarchy, opts Options) *matrixScorer {
	if ws.bound == nil {
		ws.bound, ws.steps = map[dsl.Instruction][][]int{}, map[stepKey]stepChoice{}
	}
	clear(ws.bound)
	clear(ws.steps)
	ms := &matrixScorer{
		sc:    ws.scorer(model.Sys),
		model: model,
		h:     h,
		algos: opts.Algos,
		bound: ws.bound,
		steps: ws.steps,
	}
	if len(ms.algos) == 0 {
		ms.algos = []cost.Algorithm{model.Algo}
	}
	if len(ms.algos) > 1 {
		ms.stepAlgos = make([]cost.Algorithm, max(opts.MaxProgramSize, synth.DefaultMaxSize))
	}
	return ms
}

// groups returns the physical groups of in under the scorer's placement,
// binding the instruction on first use.
func (ms *matrixScorer) groups(in dsl.Instruction) [][]int {
	g, ok := ms.bound[in]
	if !ok {
		g = lower.Bind(in, ms.h)
		ms.bound[in] = g
	}
	return g
}

// stepTime returns one step's memoized evaluation.
//
//p2:zeroalloc
func (ms *matrixScorer) stepTime(in dsl.Instruction, rows int) stepChoice {
	var key stepKey
	key.in, key.rows = in, rows
	if ch, ok := ms.steps[key]; ok {
		return ch
	}
	return ms.evalStep(key)
}

// evalStep is stepTime's cold path: bind the instruction and take the
// argmin over the algorithm set (ties to the earliest entry, matching
// cost.Model.BestStepAlgos; a pinned run's set has one entry).
func (ms *matrixScorer) evalStep(key stepKey) stepChoice {
	st := lower.Step{Op: key.in.Op, Groups: ms.groups(key.in), Rows: key.rows, K: ms.h.K()}
	ch := stepChoice{algo: ms.algos[0], time: ms.sc.StepTimeAlgo(ms.model, st, ms.algos[0])}
	for _, a := range ms.algos[1:] {
		if t := ms.sc.StepTimeAlgo(ms.model, st, a); t < ch.time {
			ch = stepChoice{algo: a, time: t}
		}
	}
	ms.steps[key] = ch
	return ch
}

// planMatrix synthesizes, lowers and scores every program for one
// placement, in synthesis order (size, then lexicographic — the same order
// the serial path appends them in). The per-program sum runs over the same
// values in the same order as cost.Model.BestStepAlgos (resp.
// ProgramTime), so predictions are bit-identical to the serial brute-force
// path. It works against shared worker scratch, counters and the run's
// pruning threshold, emitting each completed candidate as soon as it is
// scored (the caller's sink pushes it into the worker heap, which can
// tighten the shared threshold mid-placement). With TopK armed it may skip
// the placement entirely (admissible bound above the threshold) and
// abandons individual programs once their partial cost sum exceeds the
// threshold. Neither cut can remove a final top-K member: the bound
// never exceeds any program's true cost, partial sums never exceed
// the total (step costs are non-negative), and both cuts require strictly
// exceeding a value that K scored candidates already meet.
//
// Cancellation is cooperative at program granularity: ctx is consulted
// between programs and the first observed cancellation returns ctx.Err()
// with the placement partially scored (every candidate already emitted is
// valid and ranked). ctx is deliberately NOT threaded into synthesize —
// memo entries complete under sync.Once exactly once, so a cancelled
// request can never leave a poisoned half-built entry for later requests.
func (p *Planner) planMatrix(ctx context.Context, ws *workerState, mi int, m *placement.Matrix, reduceAxes []int, model *cost.Model, opts Options, rc *runCounters, thr *threshold, emit func(*Candidate)) error {
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, reduceAxes, hierarchy.Options{Collapse: opts.Collapse})
	if err != nil {
		return err
	}
	prune := opts.TopK > 0
	if prune && ws.bounds.placementBound(model.Sys, h, model.Bytes) > thr.load() {
		rc.prunedPlacements.Add(1)
		return nil
	}
	res := p.synthesize(h, opts.MaxProgramSize, rc)
	ms := newMatrixScorer(ws, model, h, opts)
	// Early exit: the remaining steps can only add cost, so a partial sum
	// strictly above the threshold already loses to K kept candidates —
	// stop scoring the program.
	cutoff := func(partial float64) bool { return prune && partial > thr.load() }
	scored := 0
	for pi, prog := range res.Programs {
		if err := ctx.Err(); err != nil {
			rc.scored.Add(int64(scored))
			return err
		}
		c := ms.scoreProgram(mi, pi, m, prog, res.Shapes[pi], cutoff)
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

// scoreProgram accumulates one synthesized program's predicted time (and
// per-step algorithm assignment when searching) in exactly the serial
// order — each step a lookup of its synthesis-time shape and its
// instruction's bound groups — and abandons it as soon as cutoff reports
// the partial sum disqualifies it (nil is returned). The caller's cutoff
// must only ever cut programs whose final value provably cannot matter:
// partial sums never exceed the final value because step costs are
// non-negative. Only a surviving program is materialized as a
// lower.Program, equal to what lower.Lower builds semantically.
func (ms *matrixScorer) scoreProgram(mi, pi int, m *placement.Matrix, prog dsl.Program, shapes []dsl.Shape, cutoff func(partial float64) bool) *Candidate {
	predicted, ok := ms.score(prog, shapes, cutoff)
	if !ok {
		return nil
	}
	c := &Candidate{
		MatrixIdx: mi,
		ProgIdx:   pi,
		Matrix:    m,
		Program:   prog,
		Lowered:   lower.Assemble(prog, ms.h, shapes, ms.groups),
		Predicted: predicted,
	}
	if ms.stepAlgos != nil {
		c.StepAlgos = append([]cost.Algorithm(nil), ms.stepAlgos[:len(prog)]...)
	}
	return c
}

// score is scoreProgram's step loop. Once the placement's tables are warm
// a program — in particular one the cutoff prunes — costs map lookups and
// nothing else.
//
//p2:zeroalloc
func (ms *matrixScorer) score(prog dsl.Program, shapes []dsl.Shape, cutoff func(partial float64) bool) (float64, bool) {
	predicted := 0.0
	for si, in := range prog {
		ch := ms.stepTime(in, shapes[si].Rows)
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

// RunCtx ranks every (matrix, program) candidate for one reduction
// request, fanning the matrices out over the worker pool. The returned
// slice is sorted by Less and truncated to TopK when set. See RunStreamCtx
// for the cancellation and anytime-result contract.
func (p *Planner) RunCtx(ctx context.Context, matrices []*placement.Matrix, reduceAxes []int, model *cost.Model, opts Options) ([]*Candidate, Stats, error) {
	return p.RunStreamCtx(ctx, sliceStream(matrices), reduceAxes, model, opts)
}

// sliceStream adapts a materialized placement set to the streaming
// producer interface.
func sliceStream(matrices []*placement.Matrix) func(func(*placement.Matrix) bool) error {
	return func(yield func(*placement.Matrix) bool) error {
		for _, m := range matrices {
			if !yield(m) {
				return nil
			}
		}
		return nil
	}
}

// RunStreamCtx is RunCtx over a placement producer instead of a
// materialized slice: stream (typically placement.Iterate) yields matrices
// in canonical enumeration order and the engine feeds them to the worker
// pool as they appear, so the full placement set never resides in memory.
// The ranking is identical to RunCtx over the materialized equivalent.
//
// With Options.Rerank set, the analytic ranking is then measured on the
// emulator and re-sorted by measured time (rerank.go); RerankAll runs the
// analytic stage unpruned so that every candidate exists to be measured,
// and truncates to TopK only after the measured sort.
//
// An uncancelled context changes nothing (the checks observe nil). On
// cancellation or deadline expiry the run stops
// cooperatively — between programs, between measured candidates, and
// every few emulator event-loop iterations — and returns an *anytime*
// result alongside ctx.Err(): the merged per-worker top-K heaps, sorted
// by Less and truncated to TopK. Every returned candidate is fully
// scored and correctly ordered among those returned; the set is the best
// of what was scored before the cut, not necessarily a prefix of the
// full ranking. If cancellation lands during the re-rank measurement
// stage, partially-filled Measured values are zeroed and the analytic
// order is returned, so a partial result never mixes measured and
// unmeasured sort keys. Non-context errors return (nil, stats, err).
func (p *Planner) RunStreamCtx(ctx context.Context, stream func(func(*placement.Matrix) bool) error, reduceAxes []int, model *cost.Model, opts Options) ([]*Candidate, Stats, error) {
	runOpts := opts
	if opts.Rerank == RerankAll {
		runOpts.TopK = 0
	}
	var rc runCounters
	thr := newThreshold()
	perWorker, produced, err := fanOut(ctx, runOpts, stream, func(ws *workerState, mi int, m *placement.Matrix, emit func(*Candidate)) error {
		return p.planMatrix(ctx, ws, mi, m, reduceAxes, model, runOpts, &rc, thr, emit)
	}, Less, func(c *Candidate) float64 { return c.Predicted }, thr)
	stats := rc.stats(produced, thr)
	if err != nil {
		return nil, stats, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// Anytime result: the workers' heaps hold the best of everything
		// scored before the cut; truncate to the user-facing K (runOpts.TopK
		// is zeroed under RerankAll, which no longer applies — a cancelled
		// run never reaches the measurement stage).
		return mergeRanked(perWorker, opts.TopK, Less), stats, cerr
	}
	cands := mergeRanked(perWorker, runOpts.TopK, Less)
	if opts.Rerank != RerankOff {
		rerr := rerank(ctx, cands, model, opts, &stats)
		if opts.TopK > 0 && len(cands) > opts.TopK {
			cands = cands[:opts.TopK]
		}
		if rerr != nil {
			return cands, stats, rerr
		}
	}
	return cands, stats, nil
}

// JointSpec describes one recurring reduction of a joint request.
type JointSpec struct {
	// ReduceAxes are the axis indices reduced over.
	ReduceAxes []int
	// Model is the per-reduction cost model (its Algo and Bytes may
	// differ between reductions of one joint request).
	Model *cost.Model
	// Weight scales the reduction's predicted time in the joint total
	// (the per-step occurrence count; <= 0 means 1).
	Weight float64
	// Collapse and MaxProgramSize mirror Options per reduction.
	Collapse       bool
	MaxProgramSize int
	// Algos enables the per-step algorithm search for this reduction
	// (see Options.Algos); each reduction of a joint request may search
	// its own set.
	Algos []cost.Algorithm
}

// weight resolves the defaulted occurrence count.
func (s JointSpec) weight() float64 {
	// NaN-proof form: NaN (like zero and negatives) defaults to 1 instead
	// of poisoning every weighted total.
	if !(s.Weight > 0) {
		return 1
	}
	return s.Weight
}

// options projects the run options onto one reduction.
func (s JointSpec) options(opts Options) Options {
	ropts := opts
	ropts.Collapse = s.Collapse
	ropts.Algos = s.Algos
	if s.MaxProgramSize > 0 {
		ropts.MaxProgramSize = s.MaxProgramSize
	}
	return ropts
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

// bestForReduction returns the Less-minimal candidate of one reduction
// under one placement without materializing the rest. Scoring a program
// aborts as soon as its partial cost reaches the incumbent best's total:
// the abandoned program's final cost can only be ≥ the partial, and at
// equality it still loses the (MatrixIdx, ProgIdx) tie-break to the
// earlier incumbent, so the argmin is exact. This cut needs no threshold
// and is always on.
func (p *Planner) bestForReduction(ctx context.Context, ws *workerState, mi int, m *placement.Matrix, h *hierarchy.Hierarchy, spec JointSpec, opts Options, rc *runCounters) (*Candidate, error) {
	res := p.synthesize(h, opts.MaxProgramSize, rc)
	ms := newMatrixScorer(ws, spec.Model, h, opts)
	var best *Candidate
	cutoff := func(partial float64) bool { return best != nil && partial >= best.Predicted }
	scored := 0
	for pi, prog := range res.Programs {
		if err := ctx.Err(); err != nil {
			rc.scored.Add(int64(scored))
			return nil, err
		}
		c := ms.scoreProgram(mi, pi, m, prog, res.Shapes[pi], cutoff)
		if c == nil {
			rc.prunedPrograms.Add(1)
			continue
		}
		scored++
		if best == nil || Less(c, best) {
			best = c
		}
	}
	rc.scored.Add(int64(scored))
	if best == nil && len(res.Programs) > 0 {
		// Unreachable: the first program is never pruned (no incumbent).
		return nil, &ErrNoPrograms{ReduceAxes: spec.ReduceAxes, Matrix: m}
	}
	return best, nil
}

// RunJointCtx scores every placement against all reductions jointly,
// fanning placements out over the worker pool. Synthesis is memoized
// across both placements and reductions; with TopK set, placements whose
// summed per-reduction lower bounds exceed the shared total threshold are
// skipped before any synthesis. The result is sorted by (Total,
// MatrixIdx) and truncated to TopK placements when set.
//
// With Options.Rerank set, the kept placements' per-reduction winners are
// measured on the emulator and the placements re-sorted by summed
// weighted measured time (rerank.go); RerankAll disables the placement
// top-K during the analytic stage and truncates after the measured sort.
//
// The anytime contract is RunStreamCtx's: an uncancelled context changes
// nothing; on cancellation the merged per-worker heaps of *completed*
// placements (a joint candidate only exists once every reduction scored)
// are returned sorted and truncated alongside ctx.Err(); cancellation
// during the measured re-rank zeroes the partially-filled Measured fields
// and returns the analytic placement order.
func (p *Planner) RunJointCtx(ctx context.Context, matrices []*placement.Matrix, reds []JointSpec, opts Options) ([]*JointCandidate, Stats, error) {
	mode, finalTopK := opts.Rerank, opts.TopK
	if mode == RerankAll {
		opts.TopK = 0 // measured rank-all needs every placement materialized
	}
	var rc runCounters
	thr := newThreshold()
	prune := opts.TopK > 0
	perWorker, produced, err := fanOut(ctx, opts, sliceStream(matrices), func(ws *workerState, mi int, m *placement.Matrix, emit func(*JointCandidate)) error {
		hs := make([]*hierarchy.Hierarchy, len(reds))
		bounds := make([]float64, len(reds))
		for ri, red := range reds {
			ropts := red.options(opts)
			h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red.ReduceAxes, hierarchy.Options{Collapse: ropts.Collapse})
			if err != nil {
				return err
			}
			hs[ri] = h
			if prune {
				bounds[ri] = red.weight() * ws.bounds.placementBound(red.Model.Sys, h, red.Model.Bytes)
			}
		}
		if prune {
			bound := 0.0
			for _, b := range bounds {
				bound += b
			}
			if bound > thr.load() {
				rc.prunedPlacements.Add(1)
				return nil
			}
		}
		jc := &JointCandidate{MatrixIdx: mi, Matrix: m}
		for ri, red := range reds {
			best, err := p.bestForReduction(ctx, ws, mi, m, hs[ri], red, red.options(opts), &rc)
			if err != nil {
				return err
			}
			if best == nil {
				return &ErrNoPrograms{ReduceAxes: red.ReduceAxes, Matrix: m}
			}
			w := red.weight()
			jc.PerReduction = append(jc.PerReduction, best)
			jc.Costs = append(jc.Costs, w*best.Predicted)
			jc.Total += w * best.Predicted
			if prune && ri+1 < len(reds) {
				// The remaining reductions cost at least their bounds; a
				// placement already provably above the threshold cannot
				// enter the top-K placements.
				rest := 0.0
				for _, b := range bounds[ri+1:] {
					rest += b
				}
				if jc.Total+rest > thr.load() {
					rc.prunedPlacements.Add(1)
					return nil
				}
			}
		}
		emit(jc)
		return nil
	}, jointLess, func(jc *JointCandidate) float64 { return jc.Total }, thr)
	stats := rc.stats(produced, thr)
	if err != nil {
		return nil, stats, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return mergeRanked(perWorker, finalTopK, jointLess), stats, cerr
	}
	jcs := mergeRanked(perWorker, opts.TopK, jointLess)
	if mode != RerankOff {
		rerr := rerankJoint(ctx, jcs, reds, opts, &stats)
		if finalTopK > 0 && len(jcs) > finalTopK {
			jcs = jcs[:finalTopK]
		}
		if rerr != nil {
			return jcs, stats, rerr
		}
	}
	return jcs, stats, nil
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
		ws := &workerState{}
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
			if err := runItem(ws, it.idx, it.m, emit); err != nil && !IsCtxErr(err) {
				rec.record(it.idx, err)
			}
		}
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
				wg.Add(1) //p2:lock-ok Add happens before close(prodDone); Wait runs only after <-prodDone, so the count is always ahead of Wait
				go worker()
			}
			ch <- item{produced, m} //p2:ctx-ok workers drain ch to close even after cancellation (the stream callback stops producing via ctx.Err), so this send always completes
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
	sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
	if topK > 0 && len(all) > topK {
		all = all[:topK]
	}
	return all
}
