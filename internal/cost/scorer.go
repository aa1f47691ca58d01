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
//   - The per-uplink traffic and crossing arrays are scratch owned by the
//     Scorer. Instead of reallocating (or zeroing a whole array) per step,
//     the Scorer records which entries a step touched and resets exactly
//     those during the final max-scan (dirty-entry reset), so both are all
//     zero between steps.
//   - A step's groups are uniform, so one Schedule serves them all, and
//     ring, chain and halving-doubling links are walked straight off their
//     link formulas in group-index space, mapped through each concrete
//     group. Tree links depend on the members' hardware entities, so they
//     are expanded per group, but into reusable partition and edge scratch.
//
// Ring and Chain steps are counted, not summed. Every link of the two
// patterns carries the one volume LinkBytes, so an uplink's traffic is that
// volume added from exact 0 once per link crossing it, in any order: the
// Scorer routes the links, counts the crossings per uplink and charges an
// uplink crossed c times the c-fold sequential sum of the volume. That
// makes a replicated step cost one replica (StepTimeReplicated): a shifted
// replica crosses the shifted uplinks exactly as often, so an uplink
// touched by one replica's links is charged m_l times its count on each of
// its classes' copies, m_l being the level's class size (Replicas).
//
// Halving-doubling and Tree links carry different volumes, so their order
// matters and they accumulate link by link over the physical groups —
// groups in step order, links in the order their formulas number them (a
// halving-doubling group's folds and unfolds before its core levels), each
// link's route (topology.System.Route) endpoint a then b, levels from the
// divergence level down. Either way the step time is the most-loaded
// uplink's transfer time plus the rounds × latency term, the latency being
// the slowest divergence-level endpoint of any link. TestStepTimePinnedBits
// and TestStepTimeDigest pin the resulting floats.
//
// Nothing a Scorer keeps depends on the System, so it binds to the System
// of each Model it is handed, growing its arrays when the System has more
// uplinks. The zero Scorer is ready to use; a Scorer is not safe for
// concurrent use.
type Scorer struct {
	sys *topology.System

	traffic []float64
	dirty   []int

	// Counted (Ring and Chain) steps: crossings[i] counts one replica's
	// links routed over uplink i, and ends[i] says some link has an
	// endpoint on it at its divergence level. sums[c] is the c-fold
	// sequential sum of the step's link volume.
	crossings []int
	ends      []bool
	sums      []float64

	tree      treePartition
	treeEdges []relEdge
	path      []int

	// Per-step accumulator, reset by stepTime.
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

// zeroClass is a physical step's classes at every level: its one
// replica, at offset 0.
var zeroClass = []int{0}

// bind points s at sys, the cold path of every step. traffic, crossings
// and ends are all zero between steps, so they are only grown, never
// cleared.
func (s *Scorer) bind(sys *topology.System) {
	s.sys = sys
	if n := sys.EntityOffsets()[sys.NumLevels()]; len(s.traffic) < n {
		s.traffic, s.crossings, s.ends = make([]float64, n), make([]int, n), make([]bool, n)
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
	return s.stepTime(m, st, nil, algo)
}

// StepTimeReplicated is StepTimeAlgo of the step whose groups are
// st.Groups, one replica's, shifted by each replica offset rp was Reset
// with, bit for bit. Only a counted step can be scored from one of several
// replicas: unless rp holds one replica, algo's schedule for the step must
// have a Counted pattern. It panics when it has not, or when rp was Reset
// for another system than m's.
//
//p2:zeroalloc
func (s *Scorer) StepTimeReplicated(m *Model, st lower.Step, rp *Replicas, algo Algorithm) float64 {
	if m.Sys != s.sys {
		s.bind(m.Sys)
	}
	if rp.sys != m.Sys {
		refuse("cost: Replicas reset for another system")
	}
	return s.stepTime(m, st, rp, algo)
}

// refuse panics with msg.
func refuse(msg string) { panic(msg) }

// stepTime scores st, whose groups are one replica's under rp, or the
// physical step's when rp is nil.
//
//p2:zeroalloc
func (s *Scorer) stepTime(m *Model, st lower.Step, rp *Replicas, algo Algorithm) float64 {
	s.maxLat = 0
	s.dirty = s.dirty[:0]
	if len(st.Groups) == 0 {
		return 0
	}
	sch := ScheduleOf(st.Op, algo, st.GroupSize(), st.FracIn()*m.Bytes)
	var worst float64
	if sch.Pattern.Counted() {
		worst = s.counted(sch, st.Groups, rp)
	} else {
		if rp != nil && rp.n != 1 {
			refuse("cost: only a Ring or Chain step is scored from one of several replicas")
		}
		for _, g := range st.Groups {
			s.addGroup(sch, g)
		}
		worst = s.scan()
	}
	return worst + float64(sch.LatencyRounds)*s.maxLat
}

// scan is the final max-scan of an accumulated step: the most-loaded
// uplink's transfer time, every touched traffic entry re-zeroed. Each
// entity's uplink has its own effective bandwidth. A step that touches a
// down link (bandwidth 0) never completes, whatever its traffic there: a
// transfer that rounds to 0 bytes stalls on it too.
//
//p2:zeroalloc
func (s *Scorer) scan() float64 {
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
	return worst
}

// counted scores a Ring or Chain step from one replica's groups: it counts
// the crossings of their links per uplink, then charges every class copy
// of a crossed level-l uplink — the uplink shifted by the class's entity
// offset — the sequential sum of ClassSize(l) × its count link volumes,
// the traffic per-link accumulation leaves there. The scan covers each
// copy's own bandwidth and, for an uplink some link ends on at its
// divergence level, its own latency, so overrides and down links score as
// they do link by link; the max over copies is order-free.
//
//p2:zeroalloc
func (s *Scorer) counted(sch Schedule, groups [][]int, rp *Replicas) float64 {
	for _, g := range groups {
		n := len(g)
		if sch.Pattern == PatternRing {
			for i := range n {
				a, b := RingLink(n, i)
				s.cross(g[a], g[b])
			}
		} else {
			for i := range n - 1 {
				a, b := ChainLink(i)
				s.cross(g[a], g[b])
			}
		}
	}
	worst := 0.0
	offsets := s.sys.EntityOffsets()
	L := s.sys.NumLevels()
	// Without overrides every copy of an uplink has its level's bandwidth
	// and latency, so the first copy scores them all.
	uniform := len(s.sys.Overrides) == 0
	s.sums = append(s.sums[:0], 0) //p2:alloc-ok sums is reset to its first entry per step and its capacity reused
	for _, i := range s.dirty {
		l := 0
		for l+1 < L && i >= offsets[l+1] {
			l++
		}
		size, copies := 1, zeroClass
		if rp != nil {
			size, copies = rp.ClassSize(l), rp.Classes(l)
		}
		c := s.crossings[i] * size
		for len(s.sums) <= c {
			s.sums = append(s.sums, s.sums[len(s.sums)-1]+sch.LinkBytes) //p2:alloc-ok grows to the largest crossing count seen; growth is amortized
		}
		traffic, end := s.sums[c], s.ends[i]
		if uniform {
			copies = copies[:1]
		}
		for _, off := range copies {
			e := i - offsets[l] + off
			if bw := s.sys.LinkBandwidth(l, e); !(bw > 0) {
				worst = math.Inf(1)
			} else if t := traffic / bw; t > worst {
				worst = t
			}
			if end {
				s.maxLat = max(s.maxLat, s.sys.LinkLatency(l, e))
			}
		}
		s.crossings[i], s.ends[i] = 0, false
	}
	return worst
}

// cross routes one counted link, counting it on every uplink it loads and
// marking the two it ends on at its divergence level (endpointLatency's).
//
//p2:zeroalloc
func (s *Scorer) cross(a, b int) {
	s.path = s.sys.Route(a, b, s.path[:0])
	if len(s.path) == 0 {
		return
	}
	s.ends[s.path[0]], s.ends[s.path[1]] = true, true
	for _, i := range s.path {
		if s.crossings[i] == 0 {
			s.dirty = append(s.dirty, i) //p2:alloc-ok dirty list is reset to [:0] per step and its capacity reused; growth is amortized
		}
		s.crossings[i]++
	}
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

// addGroup accumulates the analytic view of sch, a halving-doubling or
// tree schedule, over one group g into the traffic scratch. Halving-doubling
// links come straight from FoldLink and CoreLink. Routing a link bumps
// both endpoints' uplinks by the same amount and all links of one
// halving-doubling level carry the same bytes, so the order inside a level
// is free; across levels floats do not reassociate, and fold and unfold are
// both accumulated before the core.
//
//p2:zeroalloc
func (s *Scorer) addGroup(sch Schedule, g []int) {
	n, bytes := len(g), sch.LinkBytes
	switch sch.Pattern {
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
	case PatternRing, PatternChain:
		// Counted, never accumulated link by link (stepTime).
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

// Replicas is how the groups of a replicated step repeat: one replica's
// groups, shifted by every replica's device offset
// (hierarchy.Hierarchy.ReplicaOffsets). An offset occupies address digits
// no member of the groups does, so it shifts a member's level-l entity by
// its own level-l entity with no carry, and the replicas whose offsets
// share a level-l entity — a class of the level — load the same level-l
// uplinks. Reset groups the offsets into each level's classes, all of one
// size since the offsets span every combination of their digits. The zero
// value is ready for Reset.
type Replicas struct {
	sys   *topology.System
	n     int
	start []int // level l's classes are class[start[l]:start[l+1]]
	class []int // each class's level-l entity offset
	seen  []uint64
	gen   uint64
}

// Reset groups offsets, every replica's device offset on sys with offset 0
// among them, into each level's classes. It keeps no reference to offsets.
func (rp *Replicas) Reset(sys *topology.System, offsets []int) {
	offs := sys.EntityOffsets()
	if n := offs[sys.NumLevels()]; len(rp.seen) < n {
		rp.seen = make([]uint64, n)
	}
	rp.sys, rp.n = sys, len(offsets)
	rp.start, rp.class = append(rp.start[:0], 0), rp.class[:0]
	rp.gen++
	for l := range sys.NumLevels() {
		for _, off := range offsets {
			if e := sys.EntityID(off, l); rp.seen[offs[l]+e] != rp.gen {
				rp.seen[offs[l]+e] = rp.gen
				rp.class = append(rp.class, e)
			}
		}
		rp.start = append(rp.start, len(rp.class))
	}
}

// Release drops the system rp was Reset for, keeping its scratch.
func (rp *Replicas) Release() { rp.sys = nil }

// Classes returns each level-l class's entity offset: a level-l uplink
// that replica 0 loads is loaded, shifted by each of them, by every class.
// The slice is shared and must not be mutated.
func (rp *Replicas) Classes(l int) []int { return rp.class[rp.start[l]:rp.start[l+1]] }

// ClassSize returns how many replicas each level-l class holds.
func (rp *Replicas) ClassSize(l int) int { return rp.n / (rp.start[l+1] - rp.start[l]) }
