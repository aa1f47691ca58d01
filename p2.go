// Package p2 is a Go implementation of P², the parallelism-placement and
// reduction-strategy synthesizer of "Synthesizing Optimal Parallelism
// Placement and Reduction Strategies on Hierarchical Systems for Deep
// Learning" (MLSys 2022).
//
// Given a hierarchical accelerator system (nodes, switches, NICs with their
// bandwidths), the sizes of the parallelism axes of a training job (data
// parallelism, parameter sharding, ...), and the axes a gradient reduction
// runs over, p2:
//
//  1. enumerates every topology-aware parallelism placement (a parallelism
//     matrix mapping axes onto hierarchy levels),
//  2. synthesizes every semantically valid reduction program — sequences of
//     AllReduce / ReduceScatter / AllGather / Reduce / Broadcast steps over
//     hierarchy-derived device groups — per placement, and
//  3. ranks all (placement, program) pairs with a topology-aware analytic
//     cost model, so that only a handful of candidates need measuring.
//
// The typical entry point is Plan:
//
//	plan, err := p2.Plan(p2.A100System(4), p2.Request{
//		Axes:       []int{4, 16}, // data parallel × parameter shards
//		ReduceAxes: []int{0},     // reduce gradients across data parallelism
//	})
//	best := plan.Strategies[0] // fastest predicted (placement, program)
//
// An event-level network emulator (Strategy.Measure) stands in for real
// hardware; see DESIGN.md for the substitution rationale.
package p2

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/lower"
	"p2/internal/netsim"
	"p2/internal/placement"
	"p2/internal/plan"
	"p2/internal/synth"
	"p2/internal/topology"
)

// System is a hierarchical accelerator system (re-exported from the
// topology layer). Construct one with NewSystem or use the presets.
type System = topology.System

// Level is one tier of a system hierarchy.
type Level = topology.Level

// Link describes an interconnect uplink (bandwidth in bytes/s).
type Link = topology.Link

// LinkOverride degrades one specific entity's uplink (bandwidth/latency
// multipliers, loss fraction, or a fully down link), making a system's
// fabric heterogeneous; attach overrides with System.WithOverrides.
type LinkOverride = topology.LinkOverride

// ParseFaults parses a fault-spec string ("LEVEL:ENTITY:EFFECT[,...]"
// clauses, ';'-separated — see topology.ParseFaults for the grammar)
// against a concrete system, yielding overrides for System.WithOverrides.
func ParseFaults(sys *System, spec string) ([]LinkOverride, error) {
	return topology.ParseFaults(sys, spec)
}

// Matrix is a parallelism placement matrix.
type Matrix = placement.Matrix

// Program is a reduction program in the paper's DSL.
type Program = dsl.Program

// Algorithm selects the modelled NCCL algorithm.
type Algorithm = cost.Algorithm

// SimOptions tune the event-level network emulator used by
// Strategy.MeasureWith/TraceWith (re-exported from the netsim layer).
type SimOptions = netsim.Options

// Re-exported algorithm constants.
const (
	Ring            = cost.Ring
	Tree            = cost.Tree
	HalvingDoubling = cost.HalvingDoubling
)

// Re-exported algorithm sets for Request.Algos: the paper's two evaluated
// algorithms, and the set extended with halving-doubling.
var (
	Algorithms         = cost.Algorithms
	ExtendedAlgorithms = cost.ExtendedAlgorithms
)

// MeasureMode selects measured-in-the-loop planning (re-exported from the
// planning engine): whether the analytic ranking is re-ordered by emulated
// runtimes before it is returned.
type MeasureMode = plan.RerankMode

// Measured-in-the-loop planning modes for Request.Measure and
// JointOptions.Measure.
const (
	// MeasureOff ranks purely analytically (the default).
	MeasureOff = plan.RerankOff
	// MeasureRerank measures the analytic top-K survivors on the network
	// emulator and re-sorts those K candidates by measured time — the
	// paper's "measure only a handful of candidates" loop closed: the
	// analytic stage stays bound-pruned and fast, and the final ranking
	// is backed by emulation at a cost of K extra emulator runs. With
	// TopK = 0 every candidate survives, so the mode equals MeasureRankAll.
	MeasureRerank = plan.RerankTopK
	// MeasureRankAll measures every candidate and orders the whole
	// (placement × program) space by measured time — the exhaustive
	// reference. It disables the analytic stage's top-K pruning (analytic
	// bounds cannot cut a measured ranking) and costs one emulator run
	// per candidate.
	MeasureRankAll = plan.RerankAll
)

// ParseMeasureMode parses a measured-mode name ("off", "rerank",
// "rank-all", case-insensitive) as spelled by MeasureMode.String — the
// shared vocabulary of every -measure CLI flag.
func ParseMeasureMode(s string) (MeasureMode, error) { return plan.ParseRerankMode(s) }

// NewSystem builds a custom system; levels are ordered root-most first and
// uplinks align with levels.
func NewSystem(name string, levels []Level, uplinks []Link) (*System, error) {
	return topology.New(name, levels, uplinks)
}

// A100System is the paper's Fig. 9a preset: nodes × 16 A100 GPUs behind one
// NVSwitch and one NIC per node.
func A100System(nodes int) *System { return topology.A100System(nodes) }

// V100System is the paper's Fig. 9b preset: nodes × 8 V100 GPUs on an
// NVLink ring with a shared NIC per node.
func V100System(nodes int) *System { return topology.V100System(nodes) }

// Fig2aSystem is the paper's running example: 1 rack × 2 servers × 2 CPUs
// × 4 GPUs.
func Fig2aSystem() *System { return topology.Fig2aSystem() }

// SuperPodSystem is a three-level DGX-style cluster: pods × nodes × 8 GPUs
// with NVSwitch, InfiniBand rails and an oversubscribed spine.
func SuperPodSystem(pods, nodesPerPod int) *System {
	return topology.SuperPodSystem(pods, nodesPerPod)
}

// ParseSystem resolves a preset name to a system, sharing one vocabulary
// between the CLI's -system flag and the serve API's "system" field:
// "a100" or "v100" scaled to nodes (nodes <= 0 defaults to 4, the CLI
// default), "fig2a" (fixed shape), or "superpod[:PxN]" (P pods × N nodes
// per pod, default 2x4). Names are case-insensitive.
func ParseSystem(name string, nodes int) (*System, error) {
	if nodes <= 0 {
		nodes = 4
	}
	lname := strings.ToLower(name)
	if shape, ok := strings.CutPrefix(lname, "superpod"); ok {
		pods, nodesPerPod := 2, 4
		if shape != "" {
			var err error
			if pods, nodesPerPod, err = parseSuperPodShape(shape); err != nil {
				return nil, err
			}
		}
		return topology.SuperPodSystem(pods, nodesPerPod), nil
	}
	switch lname {
	case "a100":
		return topology.A100System(nodes), nil
	case "v100":
		return topology.V100System(nodes), nil
	case "fig2a":
		return topology.Fig2aSystem(), nil
	default:
		return nil, fmt.Errorf("unknown system %q (want a100, v100, fig2a or superpod[:PxN])", name)
	}
}

// parseSuperPodShape parses the ":PxN" suffix of superpod:PxN.
func parseSuperPodShape(shape string) (pods, nodesPerPod int, err error) {
	rest, ok := strings.CutPrefix(shape, ":")
	if !ok {
		return 0, 0, fmt.Errorf("malformed superpod shape %q (want superpod:PxN, e.g. superpod:4x8)", shape)
	}
	p, n, ok := strings.Cut(rest, "x")
	if !ok {
		return 0, 0, fmt.Errorf("malformed superpod shape %q (want superpod:PxN, e.g. superpod:4x8)", shape)
	}
	if pods, err = strconv.Atoi(p); err == nil {
		nodesPerPod, err = strconv.Atoi(n)
	}
	if err != nil || pods <= 0 || nodesPerPod <= 0 {
		return 0, 0, fmt.Errorf("malformed superpod shape %q (want superpod:PxN, e.g. superpod:4x8)", shape)
	}
	return pods, nodesPerPod, nil
}

// Placements enumerates every parallelism matrix mapping the given axes
// onto the system hierarchy (§3.1).
func Placements(sys *System, axes []int) ([]*Matrix, error) {
	return placement.Enumerate(sys.Hierarchy(), axes)
}

// Request describes what to synthesize.
type Request struct {
	// Axes are the parallelism axis sizes; their product must equal the
	// system's device count.
	Axes []int
	// ReduceAxes are the axis indices the reduction runs over.
	ReduceAxes []int
	// Algo is the NCCL algorithm to model (default Ring).
	Algo Algorithm
	// Algos, when it has two or more entries, searches the set instead of
	// pinning Algo: every step of every candidate independently runs the
	// algorithm predicted fastest for it (NCCL_ALGO as a tuned dimension,
	// per the paper's §5 cost-model knobs). Pass cost.ExtendedAlgorithms
	// (= p2.ExtendedAlgorithms) for the full Ring/Tree/HalvingDoubling
	// space. nil means {Algo}; a single entry pins that algorithm.
	Algos []Algorithm
	// Bytes is the per-device payload in bytes (default: the paper's
	// 2^29 × machines float32, where machines is the product of all
	// non-leaf level counts).
	Bytes float64
	// MaxProgramSize limits synthesized program length (default 5).
	MaxProgramSize int
	// Matrix restricts synthesis to a single placement instead of
	// enumerating all of them.
	Matrix *Matrix
	// Parallelism bounds the planner's worker pool (how many placements
	// are evaluated concurrently). 0 uses GOMAXPROCS; 1 processes the
	// placements sequentially. Any value yields the same ranking.
	Parallelism int
	// TopK, when positive, keeps only the K fastest-predicted strategies
	// — exactly the first K entries of the full ranking — using bounded
	// per-worker heaps instead of materializing the whole cross-product.
	// In measured modes (Measure) it bounds the final measured ranking
	// instead; see MeasureRerank and MeasureRankAll for how each stage
	// uses it.
	TopK int
	// Measure selects measured-in-the-loop planning: MeasureOff (the
	// zero value) returns the analytic ranking as before; MeasureRerank
	// re-ranks the analytic top-K on the network emulator; MeasureRankAll
	// measures every candidate. In measured modes Strategies are ordered
	// by (and carry) Strategy.Measured, and PlanResult.Stats reports the
	// emulation effort and the analytic-vs-measured rank inversions.
	Measure MeasureMode
	// SimOpts tunes the emulator used by measured planning modes (the
	// zero value is the emulator defaults); ignored with MeasureOff.
	SimOpts SimOptions
}

// Strategy is one candidate (placement, program) pair with its predicted
// — and, in measured planning modes, emulated — runtime.
type Strategy struct {
	// Matrix is the parallelism placement and Program the reduction
	// program (in the paper's DSL) of the candidate.
	Matrix    *Matrix
	Program   Program
	Predicted float64 // analytic model estimate, seconds
	// Measured is the emulated runtime in seconds when the plan ran in a
	// measured mode (Request.Measure); 0 in purely analytic plans — call
	// Measure/MeasureWith to emulate on demand.
	Measured float64
	// StepAlgos, when non-nil, is the winning per-step algorithm
	// assignment of a multi-algorithm search (Request.Algos), one entry
	// per lowered step. nil means every step runs Algo() — including
	// searched candidates whose winning assignment was uniform, which are
	// canonicalized to the fixed algorithm they chose.
	StepAlgos []Algorithm

	lowered *lower.Program
	sys     *System
	algo    Algorithm
	bytes   float64
}

// Lowered exposes the physical collective steps of the strategy.
func (s *Strategy) Lowered() *lower.Program { return s.lowered }

// Algo returns the strategy's fixed algorithm; it is the algorithm of
// every step unless StepAlgos overrides them.
func (s *Strategy) Algo() Algorithm { return s.algo }

// AlgoString names the strategy's algorithm choice compactly: a single
// name for fixed-algorithm strategies, a "/"-joined per-step sequence for
// mixed assignments (e.g. "HalvingDoubling/Ring/HalvingDoubling").
func (s *Strategy) AlgoString() string {
	return cost.FormatAlgos(s.algo, s.StepAlgos)
}

// Measure runs the strategy on the event-level network emulator and
// returns the emulated runtime in seconds.
func (s *Strategy) Measure() float64 { return s.MeasureWith(SimOptions{}) }

// MeasureWith is Measure under explicit emulator options (noise, launch
// overhead, fusion and cross-domain toggles).
func (s *Strategy) MeasureWith(opts SimOptions) float64 {
	sim := &netsim.Simulator{Sys: s.sys, Algo: s.algo, Bytes: s.bytes, Opts: opts}
	return sim.MeasureSteps(s.lowered, s.StepAlgos)
}

// Trace measures the strategy while recording every transfer, returning
// the events for visualization (see internal/trace for Chrome export).
func (s *Strategy) Trace() (float64, []netsim.Event) {
	return s.TraceWith(SimOptions{})
}

// TraceWith is Trace under explicit emulator options.
func (s *Strategy) TraceWith(opts SimOptions) (float64, []netsim.Event) {
	var events []netsim.Event
	sim := &netsim.Simulator{Sys: s.sys, Algo: s.algo, Bytes: s.bytes, Opts: opts,
		Recorder: func(ev netsim.Event) { events = append(events, ev) }}
	return sim.MeasureSteps(s.lowered, s.StepAlgos), events
}

// Pipelined predicts the strategy's runtime when the payload is split
// into the given number of buckets flowing through its steps as a
// pipeline (gradient bucketing).
func (s *Strategy) Pipelined(buckets int) float64 {
	model := &cost.Model{Sys: s.sys, Algo: s.algo, Bytes: s.bytes}
	return model.PipelinedTimeSteps(s.lowered, buckets, s.StepAlgos)
}

// OptimalBuckets returns the bucket count (1..max) minimizing the
// pipelined prediction, with the predicted time.
func (s *Strategy) OptimalBuckets(max int) (int, float64) {
	model := &cost.Model{Sys: s.sys, Algo: s.algo, Bytes: s.bytes}
	return cost.OptimalBucketsSteps(model, s.lowered, max, s.StepAlgos)
}

// String renders the strategy compactly.
func (s *Strategy) String() string {
	return fmt.Sprintf("%v via %v [%s] (predicted %.3fs)",
		s.Matrix, s.Program, s.AlgoString(), s.Predicted)
}

// PlanResult is the ranked synthesis result of Plan.
type PlanResult struct {
	// Strategies are all candidates, fastest predicted first — fastest
	// measured first when the request ran in a measured mode
	// (Request.Measure), with analytic order breaking measured ties.
	// With Request.TopK set, only the K fastest are present.
	Strategies []*Strategy
	// Request echoes the planned request (with defaults applied), System
	// the system it planned against.
	Request Request
	System  *System
	// Stats reports the planning effort (placements, synthesis runs,
	// signature-memo hits, candidates scored), with Request.TopK the
	// pruning wins (placements and programs skipped by the admissible
	// lower bound, threshold tightenings), and in measured modes the
	// emulation effort (candidates measured, analytic-vs-measured rank
	// inversions).
	Stats plan.Stats
	// Partial marks an anytime result: the request's context was cancelled
	// or its deadline expired mid-plan (PlanCtx), and Strategies holds the
	// best-so-far ranking — every entry fully scored and correctly ordered
	// among those present, but not necessarily a prefix of the complete
	// ranking. If cancellation landed during a measured re-rank, Measured
	// fields are zeroed and the order is the analytic one. Always false
	// from Plan and from requests that ran to completion.
	Partial bool
}

// Best returns the first-ranked strategy: fastest predicted, or fastest
// measured when the request ran in a measured mode.
func (p *PlanResult) Best() *Strategy { return p.Strategies[0] }

// BaselineFor returns the single-AllReduce strategy for the given matrix,
// or nil if the matrix was not part of the plan.
func (p *PlanResult) BaselineFor(m *Matrix) *Strategy {
	base := synth.BaselineAllReduce().String()
	for _, s := range p.Strategies {
		if s.Matrix.Equal(m) && s.Program.String() == base {
			return s
		}
	}
	return nil
}

// withDefaults resolves every defaulted Request field, so that
// PlanResult.Request faithfully echoes what was planned: payload (the
// paper's 2^29 × machines float32), program-size limit, worker pool, and
// the algorithm set (nil Algos means {Algo}; a single entry pins Algo).
func (req Request) withDefaults(sys *System) Request {
	// NaN-proof form: a NaN payload (like zero and negatives) takes the
	// default instead of planning on NaN traffic, which every max-scan skips.
	if !(req.Bytes > 0) {
		req.Bytes = cost.DefaultPayload(sys)
	}
	if req.MaxProgramSize <= 0 {
		req.MaxProgramSize = synth.DefaultMaxSize
	}
	if req.Parallelism <= 0 {
		req.Parallelism = runtime.GOMAXPROCS(0)
	}
	if len(req.Algos) == 0 {
		req.Algos = []Algorithm{req.Algo}
	} else if len(req.Algos) == 1 {
		req.Algo = req.Algos[0]
	}
	return req
}

// Plan enumerates placements (or uses req.Matrix), synthesizes every valid
// reduction program for each, predicts every candidate's runtime and
// returns them ranked. With req.Algos naming two or more algorithms, the
// ranking additionally searches the per-step algorithm assignment of
// every candidate — (placement, program, per-step algorithm) jointly.
//
// Planning runs on the bound-pruned streaming engine (internal/plan):
// placements stream from the enumeration DFS (placement.Iterate) straight
// into req.Parallelism workers without materializing the placement set,
// placements inducing the same reduction hierarchy share one synthesis
// run, step costs are scored allocation-free and memoized by
// (instruction, rows), and req.TopK bounds the result without
// materializing the full cross-product — additionally arming admissible
// lower-bound pruning that skips synthesis, lowering and scoring for
// provably out-of-top-K work (see PlanResult.Stats). The ranking —
// including tie order — is identical to the serial test oracle's
// (PlanSerial, reference_test.go) for every parallelism level and every
// TopK.
//
// With req.Measure set, planning runs measured-in-the-loop: the analytic
// ranking is measured on the network emulator and re-sorted by measured
// time (MeasureRerank re-ranks only the analytic top-K; MeasureRankAll
// measures everything). Measured rankings are equally deterministic —
// byte-identical at every parallelism level — because the emulator and
// the tie order are pure functions of the request.
func Plan(sys *System, req Request) (*PlanResult, error) {
	return PlanCtx(context.Background(), sys, req) //p2:ctx-ok documented no-deadline compatibility entry point wrapping PlanCtx
}

// PlanCtx is Plan under a context, with anytime semantics: an uncancelled
// context plans byte-identically to Plan; on cancellation or deadline
// expiry the engine stops cooperatively and, if any candidates were
// already scored, returns the best-so-far ranking with Partial set and a
// nil error. Cancellation before the first scored candidate returns the
// context's error. See PlanResult.Partial for exactly what a partial
// ranking guarantees.
func PlanCtx(ctx context.Context, sys *System, req Request) (*PlanResult, error) {
	return (&Planner{eng: plan.New()}).PlanCtx(ctx, sys, req)
}

// Planner plans requests against a synthesis memo that persists across
// calls: placements inducing the same reduction hierarchy — within one
// request or across many — share one synthesis run. Plan/PlanCtx at
// package level construct a fresh Planner per call (memo spans exactly
// one request); a long-lived daemon keeps one Planner so repeat traffic
// hits a warm memo. A Planner is safe for concurrent use, and a
// cancelled request can never corrupt the shared memo: memo entries
// complete exactly once regardless of which request triggered them
// (cancellation cuts between programs and placements, never inside a
// synthesis).
type Planner struct {
	eng *plan.Planner
}

// NewPlanner returns an empty Planner. memoCap bounds the shared
// synthesis memo to that many entries (once full, unseen hierarchy
// signatures synthesize without being recorded — correct, just not
// shared); memoCap <= 0 means unbounded.
func NewPlanner(memoCap int) *Planner {
	return &Planner{eng: plan.New(plan.WithMemoCap(memoCap))}
}

// PlanCtx plans one request on the Planner's shared memo; see the
// package-level PlanCtx for the anytime contract.
func (pl *Planner) PlanCtx(ctx context.Context, sys *System, req Request) (*PlanResult, error) {
	req = req.withDefaults(sys)
	stream := func(yield func(*placement.Matrix) bool) error {
		if req.Matrix != nil {
			yield(req.Matrix)
			return nil
		}
		return placement.Iterate(sys.Hierarchy(), req.Axes, yield)
	}
	model := &cost.Model{Sys: sys, Algo: req.Algo, Bytes: req.Bytes}
	cands, stats, err := pl.eng.RunStreamCtx(ctx, stream, req.ReduceAxes, model, plan.Options{
		Parallelism:    req.Parallelism,
		TopK:           req.TopK,
		MaxProgramSize: req.MaxProgramSize,
		Collapse:       len(req.ReduceAxes) > 1,
		Algos:          req.Algos,
		Rerank:         req.Measure,
		SimOpts:        req.SimOpts,
	})
	partial := false
	if err != nil {
		if !plan.IsCtxErr(err) || len(cands) == 0 {
			return nil, err
		}
		partial = true
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("p2: no valid strategies for axes %v reduce %v", req.Axes, req.ReduceAxes)
	}
	res := &PlanResult{Request: req, System: sys, Stats: stats, Partial: partial}
	res.Strategies = make([]*Strategy, len(cands))
	for i, c := range cands {
		res.Strategies[i] = strategyFromCandidate(c, sys, req.Algo, req.Bytes)
	}
	return res, nil
}

// strategyFromCandidate adopts a planner candidate as a public Strategy,
// canonicalizing uniform per-step assignments to the fixed algorithm they
// name (so they render and measure exactly like a pinned run).
func strategyFromCandidate(c *plan.Candidate, sys *System, algo Algorithm, bytes float64) *Strategy {
	stepAlgos := c.StepAlgos
	if a, ok := cost.UniformAlgo(stepAlgos); ok {
		algo, stepAlgos = a, nil
	}
	return &Strategy{
		Matrix:    c.Matrix,
		Program:   c.Program,
		Predicted: c.Predicted,
		Measured:  c.Measured,
		StepAlgos: stepAlgos,
		lowered:   c.Lowered,
		sys:       sys,
		algo:      algo,
		bytes:     bytes,
	}
}

// ParseMatrix parses the paper's matrix notation, e.g. "[[1 4] [4 4]]",
// validating it against the system hierarchy and axes.
func ParseMatrix(sys *System, axes []int, s string) (*Matrix, error) {
	return placement.ParseMatrix(s, sys.Hierarchy(), axes)
}

// ParseProgram parses a reduction program printed by Program.String.
func ParseProgram(s string) (Program, error) { return dsl.Parse(s) }
