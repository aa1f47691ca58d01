package cost

import (
	"sync"

	"p2/internal/collective"
	"p2/internal/lower"
	"p2/internal/topology"
)

// Scorer is the one step-cost evaluator: every Model method borrows one
// from a package pool, and each planning worker holds its own. A warm
// Scorer scores with zero allocations, by two mechanisms:
//
//   - The per-uplink traffic array is scratch owned by the Scorer. Instead
//     of reallocating (or zeroing the whole array) per step, the Scorer
//     records which entries a step touched and resets exactly those during
//     the final max-scan (dirty-entry reset), so traffic is all zero
//     between steps.
//   - Schedule expansions are memoized. Ring, chain and halving-doubling
//     schedules depend only on (pattern, group size, link bytes) — their
//     edges are cached in group-index space and mapped through the
//     concrete group on replay. Tree schedules depend on the members'
//     hardware entities, so they are expanded per group, but into reusable
//     partition and edge scratch.
//
// The accumulation order is fixed — groups in step order, edges in
// schedule order, each edge's route (topology.System.Route) endpoint a
// then b, levels from the divergence level down — and the step time is
// the most-loaded uplink's transfer time plus the rounds × latency term.
// TestStepTimePinnedBits and TestStepTimeDigest pin the resulting floats.
//
// Neither the memo nor the reset depends on the System, so a Scorer binds
// to the System of each Model it is handed, growing its traffic array when
// the System has more uplinks. The zero Scorer is ready to use; a Scorer
// is not safe for concurrent use.
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

// NewScorer returns a Scorer bound to sys, its traffic array and schedule
// memo allocated up front.
func NewScorer(sys *topology.System) *Scorer {
	s := &Scorer{sched: map[schedKey][]relEdge{}}
	s.bind(sys)
	return s
}

// scorers pools the Scorers Model's methods borrow for one call each.
var scorers = sync.Pool{New: func() any { return new(Scorer) }}

// maxPooledSched bounds the schedule memo a pooled Scorer keeps: one
// program's evaluation caches a few dozen shapes, but callers sweeping
// payloads (every distinct byte count is a new key) would otherwise grow a
// hot pooled memo without bound.
const maxPooledSched = 256

func getScorer() *Scorer { return scorers.Get().(*Scorer) }

// putScorer returns s to the pool. A call that panics does not return its
// Scorer, so the pool never holds a dirty traffic array.
func putScorer(s *Scorer) {
	if len(s.sched) > maxPooledSched {
		clear(s.sched)
	}
	scorers.Put(s)
}

// bind points s at sys, the cold path of StepTimeAlgo. traffic is all
// zero between steps, so it is only grown, never cleared.
func (s *Scorer) bind(sys *topology.System) {
	s.sys = sys
	if n := sys.EntityOffsets()[sys.NumLevels()]; len(s.traffic) < n {
		s.traffic = make([]float64, n)
	}
}

// StepTimeAlgo predicts the duration of one lowered step under m, run
// with algo in place of m.Algo.
//
//p2:zeroalloc
func (s *Scorer) StepTimeAlgo(m *Model, st lower.Step, algo Algorithm) float64 {
	if m.Sys != s.sys {
		s.bind(m.Sys)
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
	// Each entity's uplink has its own effective bandwidth. A down link
	// (bandwidth 0) carrying traffic yields +Inf; with zero traffic the 0/0
	// NaN fails the > comparison and is ignored (no traffic, no cost).
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

// ProgramTime sums the step times of a lowered program in step order.
//
//p2:zeroalloc
func (s *Scorer) ProgramTime(m *Model, p *lower.Program) float64 {
	total := 0.0
	for _, st := range p.Steps {
		total += s.StepTimeAlgo(m, st, m.Algo)
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
		if s.sched == nil {
			s.sched = map[schedKey][]relEdge{}
		}
		edges = sch.edges()
		s.sched[key] = edges
	}
	return edges
}

// addEdge routes one transfer through the uplinks it traverses and adds
// its bytes to each of them, charging the endpoint latency of the route.
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
