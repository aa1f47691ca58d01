package cost

import (
	"math"
	"sync"

	"p2/internal/lower"
	"p2/internal/topology"
)

// Scorer is the one step-cost evaluator: every Model method borrows one
// from a package pool, and each planning worker holds its own. A warm
// Scorer scores with zero allocations, whatever the payload:
//
//   - The per-uplink traffic array is scratch owned by the Scorer. Instead
//     of reallocating (or zeroing the whole array) per step, the Scorer
//     records which entries a step touched and resets exactly those during
//     the final max-scan (dirty-entry reset), so traffic is all zero
//     between steps.
//   - A step's groups are uniform, so one Schedule serves them all, and
//     ring, chain and halving-doubling links are walked straight off their
//     link formulas in group-index space, mapped through each concrete
//     group. Tree links depend on the members' hardware entities, so they
//     are expanded per group, but into reusable partition and edge scratch.
//
// The accumulation order is fixed — groups in step order, links in the
// order their formulas number them (a halving-doubling group's folds and
// unfolds before its core levels), each link's route
// (topology.System.Route) endpoint a then b, levels from the divergence
// level down — and the step time is the most-loaded uplink's transfer time
// plus the rounds × latency term. TestStepTimePinnedBits and
// TestStepTimeDigest pin the resulting floats.
//
// Nothing a Scorer keeps depends on the System, so it binds to the System
// of each Model it is handed, growing its traffic array when the System
// has more uplinks. The zero Scorer is ready to use; a Scorer is not safe
// for concurrent use.
type Scorer struct {
	sys *topology.System

	traffic []float64
	dirty   []int

	tree      treePartition
	treeEdges []relEdge
	path      []int

	// Per-step accumulators, reset by StepTimeAlgo.
	maxLat float64
}

// NewScorer returns a Scorer bound to sys, its traffic array allocated up
// front.
func NewScorer(sys *topology.System) *Scorer {
	s := new(Scorer)
	s.bind(sys)
	return s
}

// scorers pools the Scorers Model's methods borrow for one call each.
var scorers = sync.Pool{New: func() any { return new(Scorer) }}

func getScorer() *Scorer { return scorers.Get().(*Scorer) }

// putScorer returns s to the pool. A call that panics does not return its
// Scorer, so the pool never holds a dirty traffic array.
func putScorer(s *Scorer) { scorers.Put(s) }

// Release drops s's system and keeps its scratch, so that a Scorer kept
// between runs holds no system alive; the next step rebinds.
func (s *Scorer) Release() { s.sys = nil }

// bind points s at sys, the cold path of StepTimeAlgo. traffic is all
// zero between steps, so it is only grown, never cleared.
func (s *Scorer) bind(sys *topology.System) {
	s.sys = sys
	if n := sys.EntityOffsets()[sys.NumLevels()]; len(s.traffic) < n {
		s.traffic = make([]float64, n)
	}
}

// StepTimeAlgo predicts the duration of one lowered step under m, run
// with algo in place of m.Algo. It reads algo only through ScheduleOf, so
// two algorithms whose analytic views (Pattern, LinkBytes, LatencyRounds)
// agree score a step identically.
//
//p2:zeroalloc
func (s *Scorer) StepTimeAlgo(m *Model, st lower.Step, algo Algorithm) float64 {
	if m.Sys != s.sys {
		s.bind(m.Sys)
	}
	s.maxLat = 0
	s.dirty = s.dirty[:0]
	rounds := 0
	if len(st.Groups) > 0 {
		sch := ScheduleOf(st.Op, algo, st.GroupSize(), st.FracIn()*m.Bytes)
		for _, g := range st.Groups {
			s.addGroup(sch, g)
		}
		rounds = sch.LatencyRounds
	}
	// Each entity's uplink has its own effective bandwidth. A step that
	// touches a down link (bandwidth 0) never completes, whatever its
	// traffic there: a transfer that rounds to 0 bytes stalls on it too.
	worst := 0.0
	offsets := s.sys.EntityOffsets()
	L := s.sys.NumLevels()
	for _, i := range s.dirty {
		l := 0
		for l+1 < L && i >= offsets[l+1] {
			l++
		}
		if bw := s.sys.LinkBandwidth(l, i-offsets[l]); !(bw > 0) {
			worst = math.Inf(1)
		} else if t := s.traffic[i] / bw; t > worst {
			worst = t
		}
		s.traffic[i] = 0
	}
	return worst + float64(rounds)*s.maxLat
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

// addGroup accumulates the analytic view of sch over one group g into the
// traffic scratch. Ring, chain and halving-doubling links come straight
// from RingLink, ChainLink, FoldLink and CoreLink. Routing a link bumps
// both endpoints' uplinks by the same amount and all links of one
// halving-doubling level carry the same bytes, so the order inside a level
// is free; across levels floats do not reassociate, and fold and unfold are
// both accumulated before the core.
//
//p2:zeroalloc
func (s *Scorer) addGroup(sch Schedule, g []int) {
	n, bytes := len(g), sch.LinkBytes
	switch sch.Pattern {
	case PatternRing:
		for i := range n {
			a, b := RingLink(n, i)
			s.addEdge(g[a], g[b], bytes)
		}
	case PatternChain:
		for i := range n - 1 {
			a, b := ChainLink(i)
			s.addEdge(g[a], g[b], bytes)
		}
	case PatternHalvingDoubling:
		p := CorePow2(n)
		for k := p; k < n; k++ {
			a, b := FoldLink(p, k)
			s.addEdge(g[a], g[b], bytes)
			s.addEdge(g[b], g[a], bytes)
		}
		for r := 0; 1<<r < p; r++ {
			level := 2 * bytes / float64(int(2)<<r) // halving + doubling phases
			for i := range p {
				a, b := CoreLink(r, i)
				s.addEdge(g[a], g[b], level)
			}
		}
	case PatternTree:
		s.treeEdges = s.tree.edges(s.sys, g, bytes, s.treeEdges[:0])
		for _, e := range s.treeEdges {
			s.addEdge(g[e.a], g[e.b], e.bytes)
		}
	}
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

// bump adds bytes to one traffic entry, listing it for the final scan and
// the dirty-entry reset while it is still zero. Entries only ever
// accumulate non-negative transfer sizes, so each touched entry is listed
// — a zero-byte contribution to a zero entry lists it again, which the
// scan tolerates — and a down link a step touches is always scanned.
//
//p2:zeroalloc
func (s *Scorer) bump(i int, bytes float64) {
	//p2:nan-ok traffic accumulates validated finite transfer sizes; exact 0 marks an untouched entry
	if s.traffic[i] == 0 {
		s.dirty = append(s.dirty, i) //p2:alloc-ok dirty list is reset to [:0] per step and its capacity reused; growth is amortized
	}
	s.traffic[i] += bytes
}
