// Package netsim is an event-level network emulator used as the testbed
// substitute for the paper's GCP GPU measurements (see DESIGN.md). It
// executes lowered reduction programs on a topology model at
// transfer granularity with:
//
//   - per-link fair bandwidth sharing (all transfers crossing a link split
//     its bandwidth equally, so a node's single NIC is a real point of
//     contention),
//   - the ring/tree/halving-doubling schedules of NCCL, executed round by
//     round (halving-doubling on non-power-of-two groups runs the
//     2-proc-residual variant: a fold pre-round into power-of-two
//     partners, the recursive-halving/doubling core, an unfold
//     post-round),
//   - per-step launch overhead and per-round link latency,
//   - V100 cross-PCIe-domain throttling (the effect the paper's analytic
//     model deliberately ignores, Fig. 9b),
//   - deterministic multiplicative noise seeded from the program
//     fingerprint (standing in for network jitter), and
//   - an XLA-like peephole that fuses consecutive AllReduce steps (the
//     paper observes XLA doing exactly this to 2-step AllReduce programs).
//
// Because the emulator models effects the analytic model (internal/cost)
// does not, predictions and "measurements" disagree in the same ways the
// paper reports: mostly small gaps, larger on V100, and occasional
// prediction misses on fused programs.
package netsim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"p2/internal/collective"
	"p2/internal/cost"
	"p2/internal/lower"
	"p2/internal/topology"
)

// Options tune emulator fidelity; the zero value gives the defaults used
// by the experiment harness.
type Options struct {
	// Seed perturbs the deterministic noise stream.
	Seed uint64
	// NoiseFrac is the maximum multiplicative payload jitter (default
	// 0.04, i.e. transfers are up to 4% slower than nominal). A literal
	// zero means "use the default"; turn jitter off with DisableNoise.
	NoiseFrac float64
	// LaunchOverhead is the fixed per-step cost in seconds (kernel launch
	// + NCCL setup; default 30 µs). A literal zero means "use the
	// default"; an explicit zero overhead is expressed with
	// DisableLaunchOverhead.
	LaunchOverhead float64
	// DisableFusion turns off the consecutive-AllReduce fusion peephole.
	DisableFusion bool
	// DisableCrossDomain turns off V100 PCIe-domain throttling.
	DisableCrossDomain bool
	// DisableNoise turns off jitter (useful for exact-value tests).
	DisableNoise bool
	// DisableLaunchOverhead forces a zero per-step cost, overriding
	// LaunchOverhead — the overhead analogue of DisableNoise (useful for
	// cross-checks against the analytic model, which has no launch term).
	DisableLaunchOverhead bool
}

const (
	defaultNoiseFrac      = 0.04
	defaultLaunchOverhead = 30e-6
)

// Validate reports an option that is not a finite number >= 0. A NaN
// launch overhead makes every emulated time NaN, a negative one negative,
// and a NaN noise fraction or an infinite overhead leaves the event loop
// with no next event.
func (o Options) Validate() error {
	names, vals := [...]string{"NoiseFrac", "LaunchOverhead"}, [...]float64{o.NoiseFrac, o.LaunchOverhead}
	for i, v := range vals {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("netsim: Options.%s = %v, want a finite value >= 0", names[i], v)
		}
	}
	return nil
}

// effective resolves the option defaults: zero NoiseFrac / LaunchOverhead
// mean "default", with DisableNoise / DisableLaunchOverhead as the
// explicit-zero sentinels. It panics on options Validate refuses.
func (o Options) effective() Options {
	if err := o.Validate(); err != nil {
		panic(err.Error())
	}
	//p2:nan-ok exact zero is the documented default sentinel; DisableNoise carries explicit zero
	if o.NoiseFrac == 0 {
		o.NoiseFrac = defaultNoiseFrac
	}
	//p2:nan-ok exact zero is the documented default sentinel; DisableLaunchOverhead carries explicit zero
	if o.LaunchOverhead == 0 {
		o.LaunchOverhead = defaultLaunchOverhead
	}
	if o.DisableLaunchOverhead {
		o.LaunchOverhead = 0
	}
	return o
}

// Event describes one completed transfer, for tracing/visualization.
// Step and Group are per lane: with several programs in flight
// (MeasureConcurrent) each program numbers its own steps and groups from 0.
type Event struct {
	// Step is the lowered-step index (after fusion).
	Step int
	// Group is the device-group index within the step.
	Group int
	// Op is the collective the transfer belongs to.
	Op collective.Op
	// Src and Dst are physical device ids.
	Src, Dst int
	// Bytes is the transferred volume (including jitter).
	Bytes float64
	// Start and End are simulation timestamps in seconds.
	Start, End float64
}

// Simulator measures lowered programs on one system/algorithm/payload.
type Simulator struct {
	// Sys is the topology the transfers contend on.
	Sys *topology.System
	// Algo is the algorithm every step runs unless a per-step assignment
	// (MeasureSteps) overrides it.
	Algo cost.Algorithm
	// Bytes is the per-device payload in bytes.
	Bytes float64
	// Opts tunes emulator fidelity (zero value = defaults).
	Opts Options
	// Recorder, when non-nil, receives every completed transfer of every
	// program being measured (every lane of MeasureConcurrent), in
	// completion order. End is non-decreasing per lane; with a single
	// program that is the whole stream.
	Recorder func(Event)
	// Ctx, when non-nil, makes measurement cooperative: the event loop
	// polls it every few dozen iterations and a cancelled measurement
	// returns +Inf (the same "never completes" sentinel a stalled down
	// link produces) instead of running to completion. Callers that can
	// be cancelled must check Ctx.Err() and discard the value — a
	// cancelled measurement is not the transfer time of anything. Nil
	// (the zero value) measures to completion exactly as before.
	Ctx context.Context
}

// cancelled reports whether the simulator's context, if any, is done.
func (s *Simulator) cancelled() bool {
	return s.Ctx != nil && s.Ctx.Err() != nil
}

// Measure returns the emulated end-to-end runtime in seconds.
func (s *Simulator) Measure(p *lower.Program) float64 {
	return s.MeasureSteps(p, nil)
}

// MeasureSteps is Measure under a per-step algorithm assignment (one entry
// per step of p, as produced by the planner's multi-algorithm search); nil
// runs every step with the simulator's Algo. A uniform assignment is
// canonicalized to the fixed algorithm it names, so an all-Ring auto
// choice measures byte-identically to a fixed-Ring run. Steps assigned
// different algorithms are never fused. It is the one-lane case of
// MeasureConcurrentSpecs.
func (s *Simulator) MeasureSteps(p *lower.Program, stepAlgos []cost.Algorithm) float64 {
	return s.MeasureConcurrentSpecs([]ConcurrentSpec{{Program: p, Bytes: s.Bytes, Algo: s.Algo, StepAlgos: stepAlgos}})[0]
}

// resource is a contended link: an entity's uplink or a node's V100
// cross-domain path. share, bandwidth / float64(active), is stored at every
// change of active, and a transfer's rate is the min share on its path.
type resource struct {
	bandwidth, latency float64
	active             int
	share              float64
}

// network is one measurement's link table, indexed the way
// topology.System.Route numbers uplinks (entity e of level l at
// EntityOffsets()[l]+e), then one cross-domain slot per node. leaf is a
// node's device count; perDomain, the devices per PCIe domain, is 0 when
// cross-domain throttling is off. changed has bit i&63 set for every link
// i whose share changed since the event loop's last rate pass.
type network struct {
	sys             *topology.System
	links           []resource
	leaf, perDomain int
	changed         uint64
}

// reset rebuilds the link table for sys in place, every link idle.
func (n *network) reset(sys *topology.System, opts Options) {
	L, off := sys.NumLevels(), sys.EntityOffsets()
	n.sys, n.leaf, n.perDomain, n.links, n.changed = sys, sys.Levels[L-1].Count, 0, n.links[:0], 0
	for l := range L {
		for e := range off[l+1] - off[l] {
			n.links = append(n.links, resource{bandwidth: sys.LinkBandwidth(l, e), latency: sys.LinkLatency(l, e)})
		}
	}
	if cd := sys.CrossDomain; cd != nil && !opts.DisableCrossDomain {
		n.perDomain = n.leaf / cd.DomainsPerNode
		for range sys.NumDevices() / n.leaf {
			n.links = append(n.links, resource{bandwidth: cd.Bandwidth, latency: cd.Latency})
		}
	}
}

// load adds d transfers to every link of path, refreshes their shares and
// marks them changed. It returns the path's signature, bit i&63 set for
// every link i on it.
func (n *network) load(path []int, d int) uint64 {
	sig := uint64(0)
	for _, i := range path {
		l := &n.links[i]
		l.active += d
		l.share = l.bandwidth / float64(l.active)
		sig |= 1 << (i & 63)
	}
	n.changed |= sig
	return sig
}

// route appends to path the links a transfer a→b loads: its uplinks
// (topology.System.Route) and, for a leaf-level route between two PCIe
// domains of one node, that node's cross-domain slot.
func (n *network) route(a, b int, path []int) []int {
	start := len(path)
	path = n.sys.Route(a, b, path)
	if n.perDomain > 0 && len(path)-start == 2 && a%n.leaf/n.perDomain != b%n.leaf/n.perDomain {
		path = append(path, n.sys.EntityOffsets()[n.sys.NumLevels()]+a/n.leaf)
	}
	return path
}

// latency is the emulator's latency rule for a transfer routed over path:
// the slowest link on the path and, on a system that models PCIe domains,
// at least the cross-domain latency; the analytic model charges only the
// slower endpoint uplink at the divergence level (DESIGN.md §7).
func (n *network) latency(path []int) float64 {
	lat := 0.0
	for _, i := range path {
		if l := n.links[i].latency; l > lat {
			lat = l
		}
	}
	if cd := n.sys.CrossDomain; cd != nil && len(path) > 0 && cd.Latency > lat {
		lat = cd.Latency
	}
	return lat
}

// transferSpec is one distinct point-to-point copy of a group's rounds,
// group indexing its lane's groups. Its route, paths[lo:hi] of its lane's
// path buffer, is taken once when its step starts; down marks a route that
// crosses a down link (a LinkOverride with bandwidth scale 0).
type transferSpec struct {
	src, dst int
	bytes    float64
	lo, hi   int32
	group    int32
	down     bool
}

// span is one round: the transfers specs[lo:hi] of its lane's spec buffer.
type span struct{ lo, hi int }

// transfer is a live transfer: a started copy of its lane's current
// specs[spec] whose route crosses no down link. It holds no pointer: its
// route is the spec's, paths[lo:hi] of its lane's path buffer, and the
// Recorder reads its endpoints and group off the spec, so compacting the
// live set moves 56 bytes per transfer kept and no path. rate is the min
// share on the route as of the last rate pass that rescanned it; sig is
// the route's signature (network.load), which the rate pass matches
// against the links changed since, rescanning only a route that one of
// them may be on.
type transfer struct {
	remaining, rate    float64
	bytes              float64 // the jittered volume, for the Recorder
	started            float64 // on the lane's step-local clock
	sig                uint64
	lane, spec, lo, hi int32
}

// groupRun tracks one group's progress through its rounds.
type groupRun struct {
	lo, hi   int     // the group's rounds: its lane's rounds[lo:hi]
	next     int     // rounds started so far
	inflight int     // live transfers of the current round
	latency  float64 // per-round latency for this group
	startAt  float64 // step-local time the next round may start
}

// more reports whether the group has rounds left to start.
func (g *groupRun) more() bool { return g.lo+g.next < g.hi }

// pending reports whether the group is between rounds, waiting out its
// latency before the next one.
func (g *groupRun) pending() bool { return g.inflight == 0 && g.more() }

// scheduleRounds unrolls the emulator view of cost.ScheduleOf — the same
// schedule value the analytic model consumes — over one concrete group into
// rounds of concurrent transfers, appending the transfers to specs and the
// rounds to rounds. Rounds that repeat the same transfers (a ring's steps,
// the doubling phase mirroring the halving phase) share one span, so each
// transfer in specs is distinct.
func scheduleRounds(sys *topology.System, op collective.Op, g []int, perDevice float64, algo cost.Algorithm, specs []transferSpec, rounds []span) ([]transferSpec, []span) {
	n := len(g)
	sch := cost.ScheduleOf(op, algo, n, perDevice)
	// round closes the round whose transfers start at specs[lo].
	round := func(lo int) { rounds = append(rounds, span{lo, len(specs)}) }
	switch sch.Pattern {
	case cost.PatternRing:
		lo := len(specs)
		for i := range n {
			a, b := cost.RingLink(n, i)
			specs = append(specs, transferSpec{src: g[a], dst: g[b], bytes: sch.RoundBytes})
		}
		for range sch.Rounds {
			round(lo)
		}
	case cost.PatternChain:
		lo := len(specs)
		for i := range n - 1 {
			src, dst := cost.ChainLink(i)
			if sch.TowardRoot {
				src, dst = dst, src
			}
			specs = append(specs, transferSpec{src: g[src], dst: g[dst], bytes: sch.RoundBytes})
		}
		round(lo)
	case cost.PatternTree:
		links := cost.TreeLinks(sys, g)
		for r := range sch.Rounds {
			lo := len(specs)
			for _, link := range links {
				src, dst := link[0], link[1]
				if sch.TowardRoot == (r == 0) {
					src, dst = dst, src
				}
				specs = append(specs, transferSpec{src: src, dst: dst, bytes: sch.RoundBytes})
			}
			round(lo)
		}
	case cost.PatternHalvingDoubling:
		// Fold, halving levels 0…, doubling levels …0, unfold; p = n folds nothing.
		p := cost.CorePow2(n)
		fold := func(unfold bool) {
			lo := len(specs)
			for k := p; k < n; k++ {
				a, b := cost.FoldLink(p, k)
				if unfold {
					a, b = b, a
				}
				specs = append(specs, transferSpec{src: g[a], dst: g[b], bytes: sch.RoundBytes})
			}
			round(lo)
		}
		if p < n {
			fold(false)
		}
		first := len(rounds)
		for r := 0; 1<<r < p; r++ {
			lo, bytes := len(specs), sch.RoundBytes/float64(int(2)<<r)
			for i := range p {
				a, b := cost.CoreLink(r, i)
				specs = append(specs, transferSpec{src: g[a], dst: g[b], bytes: bytes})
			}
			round(lo)
		}
		for r := len(rounds) - 1; r >= first; r-- {
			rounds = append(rounds, rounds[r])
		}
		if p < n {
			fold(true)
		}
	}
	return specs, rounds
}

// fuseStepsAlgos applies the XLA peephole: consecutive AllReduce steps are
// merged into a single AllReduce over the connected components of their
// groups, which reduces exactly the same data (AllReduce composition is
// associative over components). An optional per-step algorithm assignment
// rides alongside: steps assigned different algorithms would not be fused
// by XLA into one collective, so they only merge when their algorithms
// agree, and the fused step inherits the shared algorithm.
// The fused steps and algorithms are appended to out[:0] and outAlgos[:0].
func fuseStepsAlgos(out []lower.Step, outAlgos []cost.Algorithm, steps []lower.Step, algos []cost.Algorithm) ([]lower.Step, []cost.Algorithm) {
	out, outAlgos = out[:0], outAlgos[:0]
	for i, st := range steps {
		if len(out) > 0 && st.Op == collective.AllReduce && out[len(out)-1].Op == collective.AllReduce &&
			(algos == nil || algos[i] == outAlgos[len(outAlgos)-1]) {
			prev := out[len(out)-1]
			merged := mergeGroups(prev.Groups, st.Groups)
			if merged != nil {
				prev.Groups = merged
				prev.RowsOut = st.RowsOut
				out[len(out)-1] = prev
				continue
			}
		}
		out = append(out, st)
		if algos != nil {
			outAlgos = append(outAlgos, algos[i])
		}
	}
	return out, outAlgos
}

// mergeGroups unions two partitions into connected components, listed by
// least member with their members ascending. A device that no group of two
// or more holds is left out: an AllReduce over it alone moves nothing. It
// returns nil when the components would be ragged (different sizes), or
// when there are none, in which case fusion is skipped.
func mergeGroups(a, b [][]int) [][]int {
	groups := slices.Concat(a, b)
	n := 0
	for _, g := range groups {
		for _, d := range g {
			n = max(n, d+1)
		}
	}
	// parent is a union-find forest over device ids. A root is its
	// component's least member and holds minus the component's size.
	parent := make([]int, n)
	for d := range parent {
		parent[d] = -1
	}
	find := func(x int) int {
		for parent[x] >= 0 {
			if up := parent[parent[x]]; up >= 0 {
				parent[x] = up
			}
			x = parent[x]
		}
		return x
	}
	for _, g := range groups {
		for _, d := range g[1:] {
			x, y := find(g[0]), find(d)
			if x == y {
				continue
			}
			x, y = min(x, y), max(x, y)
			parent[x] += parent[y]
			parent[y] = x
		}
	}
	// One ascending pass: each component opens at its root and fills in
	// ascending order, so the components come out already sorted.
	var out [][]int
	at := make([]int, n) // a root's index in out
	for d := range parent {
		r := find(d)
		if parent[r] == -1 {
			continue
		}
		if r == d {
			if len(out) > 0 && parent[d] != parent[out[0][0]] {
				return nil
			}
			at[d] = len(out)
			out = append(out, make([]int, 0, -parent[d]))
		}
		out[at[r]] = append(out[at[r]], d)
	}
	return out
}

// noiseStream yields deterministic pseudo-random values in [0, 1).
type noiseStream struct {
	state uint64
}

// next draws the value for one transfer: (step, group, round, transfer).
func (n *noiseStream) next(step, group, round, transfer int) float64 {
	x := n.state
	for _, v := range [...]int{step, group, round, transfer} {
		x ^= uint64(v+0x9e37) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
	}
	x ^= x >> 32
	n.state = n.state*6364136223846793005 + 1442695040888963407
	return float64(x%1_000_003) / 1_000_003
}
