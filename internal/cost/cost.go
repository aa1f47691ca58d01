// Package cost implements the analytic performance simulator of §5 of the
// P² paper. It predicts the runtime of a lowered reduction program on a
// hierarchical system from the topology's bandwidths and latencies alone.
//
// The model is traffic-based: every collective is expanded into the ring or
// tree schedule NCCL would use (selected by Algorithm, the paper's
// NCCL_ALGO), each schedule edge is routed through the uplinks it
// traverses, and per-uplink traffic is summed across all groups of a step
// so that shared links (e.g. the single NIC of a node) become contended
// resources. A step's time is the most-loaded link's transfer time plus a
// pipeline-rounds latency term; the program's time is the sum over its
// steps (steps are barriers, as XLA executes them).
package cost

import (
	"fmt"
	"math"
	"strings"

	"p2/internal/lower"
	"p2/internal/topology"
)

// Algorithm selects the NCCL collective algorithm being modelled.
type Algorithm int

const (
	// Ring is NCCL's ring schedule.
	Ring Algorithm = iota
	// Tree is NCCL's tree schedule (double binary tree approximated by a
	// single hierarchical tree per group: intra-node chains, inter-node
	// binary tree).
	Tree
	// HalvingDoubling is the recursive halving/doubling AllReduce — an
	// extension beyond the paper's Ring/Tree evaluation. It is
	// bandwidth-optimal with only 2·⌈log2(g)⌉ rounds, but its
	// long-distance exchanges cross slow links with large halves, so it
	// loses to ring on hierarchical networks for big payloads and wins on
	// latency-bound small ones. Groups whose size g is not a power of two
	// run NCCL's 2-proc-residual variant: the r = g − 2^⌊log2 g⌋ residual
	// members fold their full vector into power-of-two partners in a
	// pre-round, the 2^⌊log2 g⌋ core members run the standard recursive
	// halving/doubling, and a mirrored post-round unfolds the result back
	// to the residual members.
	HalvingDoubling
)

// Algorithms lists the paper's two evaluated algorithms in canonical
// order; ExtendedAlgorithms adds the halving-doubling extension.
var (
	Algorithms         = []Algorithm{Ring, Tree}
	ExtendedAlgorithms = []Algorithm{Ring, Tree, HalvingDoubling}
)

// String names the algorithm as in the paper's tables.
func (a Algorithm) String() string {
	switch a {
	case Ring:
		return "Ring"
	case Tree:
		return "Tree"
	case HalvingDoubling:
		return "HalvingDoubling"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm parses an algorithm name ("Ring", "Tree" or
// "HalvingDoubling", case-insensitive); the error for an unknown name
// enumerates the valid ones.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range ExtendedAlgorithms {
		if strings.EqualFold(s, a.String()) {
			return a, nil
		}
	}
	names := make([]string, len(ExtendedAlgorithms))
	for i, a := range ExtendedAlgorithms {
		names[i] = a.String()
	}
	return 0, fmt.Errorf("cost: unknown algorithm %q (valid: %s)", s, strings.Join(names, ", "))
}

// Model is an analytic cost model for one system, algorithm and payload.
type Model struct {
	// Sys is the hierarchical system; its device count must match the
	// programs evaluated.
	Sys *topology.System
	// Algo is the collective algorithm NCCL is pinned to.
	Algo Algorithm
	// Bytes is the per-device payload size in bytes (the gradient being
	// reduced). The paper uses 2^29 × nodes float32 values.
	Bytes float64
}

// StepTime predicts the duration of one lowered step.
func (m *Model) StepTime(st lower.Step) float64 {
	return m.StepTimeAlgo(st, m.Algo)
}

// endpointLatency is the analytic model's latency rule for a transfer
// routed over path (topology.System.Route): the slower of the two
// endpoints' uplinks at the divergence level, path[0] and path[1]; 0 for a
// transfer that never leaves its device. Without overrides both equal
// Uplinks[ldiv].Latency. The emulator charges the slowest link on the whole
// path instead (netsim's network.latency); the two rules differ on purpose.
//
//p2:zeroalloc
func endpointLatency(sys *topology.System, path []int) float64 {
	if len(path) == 0 {
		return 0
	}
	ldiv := sys.NumLevels() - len(path)/2
	off := sys.EntityOffsets()[ldiv]
	lat := sys.LinkLatency(ldiv, path[0]-off)
	if lb := sys.LinkLatency(ldiv, path[1]-off); lb > lat {
		lat = lb
	}
	return lat
}

// ProgramTime predicts the end-to-end duration of a lowered program: the
// sum of its step times (steps are global barriers). Like every Model
// method it borrows a Scorer from the package pool for the call.
//
//p2:zeroalloc
func (m *Model) ProgramTime(p *lower.Program) float64 {
	s := getScorer()
	t := s.ProgramTime(m, p)
	putScorer(s)
	return t
}

// StepTimeAlgo is StepTime under an explicit algorithm, overriding m.Algo.
// It is the evaluation primitive of the per-step algorithm search: a step
// is free to run a different NCCL_ALGO than its neighbors because steps
// are barriers.
//
//p2:zeroalloc
func (m *Model) StepTimeAlgo(st lower.Step, algo Algorithm) float64 {
	s := getScorer()
	t := s.StepTimeAlgo(m, st, algo)
	putScorer(s)
	return t
}

// BestStepAlgos brute-forces the per-step algorithm sweep: for every step
// of p it evaluates every algorithm in algos and keeps the cheapest (ties
// go to the earliest algorithm in the slice), returning the assignment and
// the summed program time. Because steps are barriers, the per-step
// minimum is the exact program optimum over the |algos|^steps assignment
// space. The sum runs in step order over per-step minima, so the memoized
// planner (internal/plan) reproduces it bit for bit.
func (m *Model) BestStepAlgos(p *lower.Program, algos []Algorithm) ([]Algorithm, float64) {
	if len(algos) == 0 {
		panic("cost: BestStepAlgos with no algorithms")
	}
	s := getScorer()
	assign := make([]Algorithm, len(p.Steps))
	total := 0.0
	for i, st := range p.Steps {
		best := s.StepTimeAlgo(m, st, algos[0])
		assign[i] = algos[0]
		for _, a := range algos[1:] {
			if t := s.StepTimeAlgo(m, st, a); t < best {
				best, assign[i] = t, a
			}
		}
		total += best
	}
	putScorer(s)
	return assign, total
}

// UniformAlgo reports whether a per-step assignment uses one algorithm
// throughout, returning it. Uniform assignments are canonicalized to a
// fixed algorithm (nil assignment) by every consumer so that e.g. an
// all-Ring auto choice measures byte-identically to a fixed-Ring run.
func UniformAlgo(stepAlgos []Algorithm) (Algorithm, bool) {
	if len(stepAlgos) == 0 {
		return 0, false
	}
	for _, a := range stepAlgos[1:] {
		if a != stepAlgos[0] {
			return 0, false
		}
	}
	return stepAlgos[0], true
}

// FormatAlgos renders an algorithm choice compactly: the fixed
// algorithm's name when stepAlgos is nil, a "/"-joined per-step sequence
// otherwise (e.g. "Ring/HalvingDoubling/Ring"). Shared by the public
// Strategy and the eval harness so assignments render identically
// everywhere.
func FormatAlgos(fixed Algorithm, stepAlgos []Algorithm) string {
	if stepAlgos == nil {
		return fixed.String()
	}
	names := make([]string, len(stepAlgos))
	for i, a := range stepAlgos {
		names[i] = a.String()
	}
	return strings.Join(names, "/")
}

// TreeLinks returns the (parent, child) pairs of the hierarchical tree the
// Tree algorithm uses over a device group: members are partitioned by their
// entity at the group's span level, each partition is connected by a chain
// (NCCL's intra-node tree is a chain), and the partition heads form a
// balanced binary tree (NCCL's inter-node double binary tree, approximated
// by a single tree). For groups with one member per entity this degenerates
// to a plain binary tree. It is PatternTree's link formula, shared with the
// event-level emulator so both simulators model the same schedule; the
// Scorer runs the same partition (treePartition) over reusable scratch.
func TreeLinks(sys *topology.System, g []int) [][2]int {
	edges := new(treePartition).edges(sys, g, 0, nil)
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{g[e.a], g[e.b]}
	}
	return out
}

// treePartition is the one implementation of the Tree pattern's partition.
// parts are reused member buckets; partOf maps a span-level entity id to
// its bucket for the current call, and partGen marks which entries of
// partOf are live, so no call clears them.
type treePartition struct {
	parts   [][]int
	partOf  []int
	partGen []uint64
	gen     uint64
}

// edges appends to out the links of TreeLinks' tree over g in group-index
// space, each carrying bytes: the binary tree across partition heads in
// first-occurrence order, then the chain within each partition.
//
//p2:zeroalloc
func (t *treePartition) edges(sys *topology.System, g []int, bytes float64, out []relEdge) []relEdge {
	span := sys.GroupSpanLevel(g)
	if span < 0 {
		return out
	}
	if n := sys.EntitiesAt(span); len(t.partOf) < n {
		t.partOf, t.partGen = make([]int, n), make([]uint64, n) //p2:alloc-ok sized once per deeper span level seen; steady state reuses it
	}
	t.gen++
	np := 0
	for i, d := range g {
		e := sys.EntityID(d, span)
		if t.partGen[e] != t.gen {
			t.partGen[e] = t.gen
			if np == len(t.parts) {
				t.parts = append(t.parts, nil) //p2:alloc-ok bucket-list growth is amortized across calls; steady state reuses the buckets
			}
			t.parts[np] = t.parts[np][:0]
			t.partOf[e] = np
			np++
		}
		pi := t.partOf[e]
		t.parts[pi] = append(t.parts[pi], i) //p2:alloc-ok buckets are reset to [:0] and their capacity reused; growth is amortized
	}
	for i := 1; i < np; i++ {
		out = append(out, relEdge{t.parts[(i-1)/2][0], t.parts[i][0], bytes}) //p2:alloc-ok appends into the caller's reused buffer
	}
	for _, p := range t.parts[:np] {
		for j := 1; j < len(p); j++ {
			out = append(out, relEdge{p[j-1], p[j], bytes}) //p2:alloc-ok appends into the caller's reused buffer
		}
	}
	return out
}

// CorePow2 returns 2^⌊log2 n⌋, the size of the halving-doubling core (the
// largest power of two not exceeding n); the n − CorePow2(n) residual
// members fold into core partners around it. Shared with the event-level
// emulator (like TreeLinks) so both simulators split the group into the
// same core and residual.
func CorePow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

func logRounds(n int) int {
	return int(math.Ceil(math.Log2(float64(n))))
}

// PayloadBytes returns the paper's experiment payload for a machine count:
// 2^29 × machines float32 values per GPU (§4). "Machines" is the number of
// NIC-owning entities — for multi-level systems the product of all
// non-leaf level counts (topology.System.NumMachines), NOT the root level
// count: SuperPodSystem(2, 4) has 8 machines (2 pods × 4 nodes), so its
// default payload is 2^29 × 8 × 4 bytes. For the paper's two-level
// testbeds the two conventions coincide.
func PayloadBytes(machines int) float64 {
	return float64(uint64(1)<<29) * float64(machines) * 4
}

// DefaultPayload returns the paper's default per-device payload for a
// system: PayloadBytes of its machine count. Every payload-defaulting call
// site (p2.Plan, p2.PlanJointCtx, eval.Config) uses this so that deep
// hierarchies scale by machines, not by the root level.
func DefaultPayload(sys *topology.System) float64 {
	return PayloadBytes(sys.NumMachines())
}
