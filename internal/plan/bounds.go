package plan

import (
	"p2/internal/cost"
	"p2/internal/hierarchy"
	"p2/internal/topology"
)

// boundSafety scales the analytic lower bound down by one part in 10⁹.
// The bound is mathematically admissible (see below), but it is computed
// as a closed-form product while the cost model accumulates the same
// traffic as a float sum in schedule order; the margin absorbs the ulp
// rounding differences so that bound ≤ predicted holds bitwise, not just
// in exact arithmetic. It costs a vanishing amount of pruning power.
const boundSafety = 1 - 1e-9

// boundScratch is per-worker reusable scratch for placementBound: splits
// holds the per-entity split-group counters and vol replica 0's per-level
// C_l (both zeroed again by the final max-scan before every return), ents
// the distinct entity ids of one group at one level, deduplicated through
// seen — an entry equal to gen marks an entity already in ents, so a new
// group and level needs only gen++, not a clear (as the Scorer's tree
// partition stamps) — and touched the splits entries replica 0 dirties.
// reps groups the placement's replicas by level. The zero value is ready
// to use.
type boundScratch struct {
	splits  []int
	vol     []int
	ents    []int
	touched []int
	seen    []uint64
	gen     uint64
	reps    cost.Replicas
}

// placementBound returns an admissible lower bound on Model.ProgramTime of
// EVERY valid reduction program for the placement inducing hierarchy h,
// under every algorithm (Ring, Tree and HalvingDoubling schedules alike):
// the cheapest conceivable step schedule for the hierarchy's reduction
// structure on this system. Placements whose bound already exceeds the
// shared top-K threshold are skipped before synthesis or lowering runs.
//
// The bound has a bandwidth and a latency component, each a simultaneous
// lower bound on the corresponding summand of every step's predicted time
// (step time = worst-link transfer + rounds × latency), so their sum lower
// bounds the program total.
//
// Bandwidth: fix a hardware entity E at level l. Every physical reduction
// group (a universe group replicated per non-reduction coordinate) that
// has members both inside and outside E must move, over the whole program,
// at least 2 bytes-per-device across E's uplink — each of the K chunk rows
// carries Bytes/K, the combined outside contribution of a row must enter E
// at least once (inside members end with the full sum) and the combined
// inside contribution must leave at least once (outside members do too),
// and intra-E transfers are never charged to E's uplink by the model. The
// model's per-step worst-link time is ≥ that step's traffic through E's
// uplink / bandwidth, so summing over steps:
//
//	Σ_steps worst_s ≥ 2·Bytes·splitGroups(E) / bandwidth(l)
//
// for every entity E; the bound takes the best (max) entity.
//
// Volume: per byte position, an all-reduce among e parties needs at least
// 2(e−1) one-way messages between them (the directed-gossip minimum). A
// group touching e_l level-l entities therefore sends at least 2(e_l−1)
// Bytes between them, and Route charges each such byte to two uplinks of
// S_l, the level-l entities the groups touch; by the mediant inequality
//
//	Σ_steps worst_s ≥ 4·Bytes·C_l / Σ_{E∈S_l} bandwidth(E),  C_l = Σ_groups (e_l−1)
//
// for every level l (DESIGN.md §6.1 has the proof). On a ring-optimal
// placement this term is exact and 2(e−1)/e times the per-entity one.
//
// Latency: let l* be the root-most level any reduction group spans. Data
// of a group spanning l* must cross between two level-l* entities, so some
// step contains an edge diverging at a level ≤ l*; that step pays at least
// one round of that uplink's latency, so Σ_steps rounds_s·lat_s ≥ the
// minimum uplink latency over levels ≤ l*.
//
// On ring-optimal placements the bound's bandwidth part is exact (up to
// rounding), which is what makes it useful: placements whose best program
// is far from the incumbent top-K are provably outside it without
// synthesizing anything.
//
// Both counts are taken from replica 0's groups alone. Every other
// replica's groups are replica 0's shifted by its device offset, which
// moves a member's level-l entity by the offset's own level-l entity with
// no carry (hierarchy.Hierarchy.ReplicaOffsets), so a group touches as many
// level-l entities in every replica — C_l is Replicas() times replica 0's
// — and a level-l entity replica 0 splits n times is split n times by
// each replica of its class: ClassSize(l)·n times in each class's copy
// (cost.Replicas), which the counts expand to before the scan.
//
// It allocates nothing in steady state: each engine worker holds one
// boundScratch, reused across a run's placements, and the final scan
// re-zeroes every splits entry the computation dirties.
//
//p2:zeroalloc
func (bs *boundScratch) placementBound(sys *topology.System, h *hierarchy.Hierarchy, bytes float64) float64 {
	// NaN-proof form: a NaN payload must take the degenerate branch (bound
	// 0 prunes nothing) instead of poisoning the bound arithmetic.
	if !(bytes > 0) {
		return 0
	}
	L := sys.NumLevels()
	offsets := sys.EntityOffsets()
	if cap(bs.splits) < offsets[L] {
		bs.splits = make([]int, offsets[L])  //p2:alloc-ok scratch growth to the largest system seen, amortized across a run's placements
		bs.seen = make([]uint64, offsets[L]) //p2:alloc-ok grows with splits, amortized likewise
	}
	if len(bs.vol) < L {
		bs.vol = make([]int, L) //p2:alloc-ok grows to the deepest system seen, amortized likewise
	}
	splits := bs.splits[:offsets[L]]
	crossed := L // root-most level any group spans (L = none)

	ents := bs.ents[:0] // scratch: distinct entity ids of one group at one level
	touched := bs.touched[:0]
	for u, grp := range h.Groups {
		if len(grp) < 2 || grp[0] != u {
			// Singleton groups need no communication; non-minimal members
			// repeat their group's minimal leaf.
			continue
		}
		for l := 0; l < L; l++ {
			ents = ents[:0]
			bs.gen++
			for _, v := range grp {
				e := sys.EntityID(h.Device(v, 0), l)
				if bs.seen[offsets[l]+e] != bs.gen {
					bs.seen[offsets[l]+e] = bs.gen
					ents = append(ents, e) //p2:alloc-ok scratch growth is amortized; capacity is persisted to bs.ents and reused
				}
			}
			if len(ents) < 2 {
				continue
			}
			if l < crossed {
				crossed = l
			}
			bs.vol[l] += len(ents) - 1
			for _, e := range ents {
				if splits[offsets[l]+e] == 0 {
					touched = append(touched, offsets[l]+e) //p2:alloc-ok scratch growth is amortized; capacity is persisted to bs.touched and reused
				}
				splits[offsets[l]+e]++
			}
		}
	}
	// Expand replica 0's counts to every replica. A class copy of a
	// replica-0 entity is never another one (the offsets' digits are not
	// the leaves'), so no count is read after it is written.
	bs.reps.Reset(sys, h.ReplicaOffsets())
	for _, i := range touched {
		l := 0
		for l+1 < L && i >= offsets[l+1] {
			l++
		}
		n := bs.reps.ClassSize(l) * splits[i]
		for _, off := range bs.reps.Classes(l) {
			splits[i+off] = n
		}
	}
	// Persist any append growth so the capacity is reused next placement.
	bs.ents, bs.touched = ents[:0], touched[:0]

	worst := 0.0
	for l := 0; l < L; l++ {
		sub := splits[offsets[l]:offsets[l+1]]
		bw := 0.0 // Σ bandwidth over S_l, the level's touched entities
		for e, n := range sub {
			if n == 0 {
				// Skip untouched entities: besides the scan cost, a down
				// link (effective bandwidth 0) would make 0/0 a NaN here.
				continue
			}
			// Re-zero the dirtied counter so the scratch is clean for the
			// next placement; untouched entries are already zero.
			sub[e] = 0
			// The flow argument is per entity, so each entity's own
			// effective bandwidth keeps the bound admissible. A down uplink
			// adds no term: leaving a term out only loosens the bound, and a
			// program touching the link predicts +Inf at that step, which
			// the program cut drops (DESIGN.md §6.1).
			b := sys.LinkBandwidth(l, e)
			bw += b
			if b > 0 {
				worst = max(worst, 2*bytes*float64(n)/b)
			}
		}
		// The volume term (C_l > 0 when S_l has a live link: no 0/0).
		if bw > 0 {
			worst = max(worst, 4*bytes*float64(bs.vol[l]*h.Replicas())/bw)
		}
		bs.vol[l] = 0
	}
	lat := 0.0
	if crossed < L {
		// Minimum effective uplink latency over levels ≤ crossed and over
		// each level's entities: some step pays a round of latency on an
		// uplink at one of these levels, but overrides mean we cannot know
		// which entity's, so the bound assumes the fastest.
		lat = sys.MinLinkLatency(crossed)
		for l := 0; l < crossed; l++ {
			if m := sys.MinLinkLatency(l); m < lat {
				lat = m
			}
		}
	}
	return (worst + lat) * boundSafety
}
