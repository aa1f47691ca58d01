package cost

import (
	"fmt"

	"p2/internal/collective"
	"p2/internal/lower"
	"p2/internal/topology"
)

// Scorer is a reusable step-cost evaluator producing bit-identical floats
// to Model.StepTime with zero allocations on the scoring path. It is the
// planning engine's per-worker workhorse: planning scores thousands of
// steps and the per-step `make([]float64, entities)` plus the schedule
// expansion slices dominated the allocation profile.
//
// Two mechanisms replace the allocations:
//
//   - The per-uplink traffic array is scratch owned by the Scorer. Instead
//     of reallocating (or zeroing the whole array) per step, the Scorer
//     records which entries a step touched and resets exactly those during
//     the final max-scan (dirty-entry reset).
//   - Schedule expansions are memoized. Ring, chain and halving-doubling
//     schedules depend only on (pattern, group size, link bytes) — their
//     edges are cached in group-index space and mapped through the
//     concrete group on replay. Tree schedules depend on the members'
//     hardware entities, so they are expanded per group, but into reusable
//     partition and edge scratch.
//
// The accumulation order — groups in step order, edges in schedule order,
// each edge's route (topology.System.Route, into reusable path scratch) —
// matches Model.StepTime exactly, so every float (and therefore every
// ranking) is unchanged.
//
// A Scorer is bound to one System and is not safe for concurrent use; give
// each worker its own.
type Scorer struct {
	sys *topology.System

	traffic []float64
	dirty   []int

	sched map[schedKey][]relEdge

	tree      treePartition
	treeEdges []relEdge
	path      []int

	// Per-step accumulators, reset by StepTimeAlgo.
	maxLat float64
}

// schedKey identifies one cached structural (group-independent) schedule.
type schedKey struct {
	pattern Pattern
	n       int
	bytes   float64
}

// NewScorer returns a Scorer for sys.
func NewScorer(sys *topology.System) *Scorer {
	offsets := sys.EntityOffsets()
	return &Scorer{
		sys:     sys,
		traffic: make([]float64, offsets[sys.NumLevels()]),
		sched:   map[schedKey][]relEdge{},
	}
}

// StepTime predicts the duration of one lowered step under m, exactly as
// m.StepTime would. m.Sys must be the scorer's system.
//
//p2:zeroalloc
func (s *Scorer) StepTime(m *Model, st lower.Step) float64 {
	return s.StepTimeAlgo(m, st, m.Algo)
}

// panicModelMismatch is the cold failure path of StepTimeAlgo, kept out
// of the //p2:zeroalloc hot function so its formatting does not count
// against the zero-allocation guarantee.
func (s *Scorer) panicModelMismatch(m *Model) {
	panic(fmt.Sprintf("cost: Scorer for %q used with model for %q", s.sys.Name, m.Sys.Name))
}

// StepTimeAlgo is StepTime under an explicit algorithm, the allocation-free
// equivalent of Model.StepTimeAlgo.
//
//p2:zeroalloc
func (s *Scorer) StepTimeAlgo(m *Model, st lower.Step, algo Algorithm) float64 {
	if m.Sys != s.sys {
		s.panicModelMismatch(m)
	}
	perDevice := st.FracIn() * m.Bytes
	s.maxLat = 0
	s.dirty = s.dirty[:0]
	maxRounds := 0
	for _, g := range st.Groups {
		if rounds := s.addGroup(st.Op, algo, g, perDevice); rounds > maxRounds {
			maxRounds = rounds
		}
	}
	worst := 0.0
	offsets := s.sys.EntityOffsets()
	L := s.sys.NumLevels()
	for _, i := range s.dirty {
		l := 0
		for l+1 < L && i >= offsets[l+1] {
			l++
		}
		if t := s.traffic[i] / s.sys.LinkBandwidth(l, i-offsets[l]); t > worst {
			worst = t
		}
		s.traffic[i] = 0
	}
	return worst + float64(maxRounds)*s.maxLat
}

// ProgramTime sums the step times of a lowered program, exactly as
// m.ProgramTime would.
//
//p2:zeroalloc
func (s *Scorer) ProgramTime(m *Model, p *lower.Program) float64 {
	total := 0.0
	for _, st := range p.Steps {
		total += s.StepTime(m, st)
	}
	return total
}

// addGroup accumulates one group's schedule into the traffic scratch and
// returns its pipeline round count. The structural schedule cache it
// consults allocates only on first sight of a (pattern, size, bytes) shape —
// a miss is outside the steady-state scoring path.
//
//p2:zeroalloc
func (s *Scorer) addGroup(op collective.Op, algo Algorithm, g []int, perDevice float64) int {
	sch := ScheduleOf(op, algo, len(g), perDevice)
	var edges []relEdge
	if sch.Pattern == PatternTree {
		s.treeEdges = s.tree.edges(s.sys, g, sch.LinkBytes, s.treeEdges[:0])
		edges = s.treeEdges
	} else {
		edges = s.structural(sch)
	}
	for _, e := range edges {
		s.addEdge(g[e.a], g[e.b], e.bytes)
	}
	return sch.LatencyRounds
}

// structural returns the cached group-index-space edges of a ring, chain
// or halving-doubling schedule, expanding and caching on first use.
func (s *Scorer) structural(sch Schedule) []relEdge {
	key := schedKey{pattern: sch.Pattern, n: sch.N, bytes: sch.LinkBytes}
	edges, ok := s.sched[key]
	if !ok {
		edges = sch.edges()
		s.sched[key] = edges
	}
	return edges
}

// addEdge routes one transfer through the uplinks it traverses — the body
// of Model.StepTime's accumulation loop, accumulating into the dirty-
// tracked scratch instead of a fresh slice.
//
//p2:zeroalloc
func (s *Scorer) addEdge(a, b int, bytes float64) {
	s.path = s.sys.Route(a, b, s.path[:0])
	if lat := endpointLatency(s.sys, s.path); lat > s.maxLat {
		s.maxLat = lat
	}
	for _, i := range s.path {
		s.bump(i, bytes)
	}
}

// bump adds bytes to one traffic entry, recording the first touch for the
// dirty-entry reset. Entries only ever accumulate non-negative transfer
// sizes, so a touched entry is nonzero unless every contribution was zero
// — in which case leaving it off the dirty list is harmless (it is already
// zero for the next step).
//
//p2:zeroalloc
func (s *Scorer) bump(i int, bytes float64) {
	//p2:nan-ok traffic accumulates validated finite transfer sizes; exact 0 marks an untouched entry
	if s.traffic[i] == 0 {
		s.dirty = append(s.dirty, i) //p2:alloc-ok dirty list is reset to [:0] per step and its capacity reused; growth is amortized
	}
	s.traffic[i] += bytes
}
