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
	"sort"

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

// effective resolves the option defaults: zero NoiseFrac / LaunchOverhead
// mean "default", with DisableNoise / DisableLaunchOverhead as the
// explicit-zero sentinels.
func (o Options) effective() Options {
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
	return s.MeasureConcurrentSpecs([]ConcurrentSpec{{Program: p, StepAlgos: stepAlgos}})[0]
}

// resource is a contended link: an entity's uplink or a node's V100
// cross-domain path.
type resource struct {
	bandwidth, latency float64
	active             int
}

// network is one measurement's link table, indexed the way
// topology.System.Route numbers uplinks (entity e of level l at
// EntityOffsets()[l]+e), then one cross-domain slot per node. leaf is a
// node's device count; perDomain, the devices per PCIe domain, is 0 when
// cross-domain throttling is off.
type network struct {
	sys             *topology.System
	links           []resource
	leaf, perDomain int
}

func newNetwork(sys *topology.System, opts Options) *network {
	L, off := sys.NumLevels(), sys.EntityOffsets()
	n := &network{sys: sys, leaf: sys.Levels[L-1].Count}
	n.links = make([]resource, 0, off[L]+sys.NumDevices()/n.leaf)
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
	return n
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

// transferSpec is one point-to-point copy within a round.
type transferSpec struct {
	src, dst int
	bytes    float64
}

// transfer is a live transfer.
type transfer struct {
	remaining float64
	paths     []int // network.links indices
	lane      int
	group     int
	rate      float64
	// stalled marks a transfer whose path crosses a down link (a
	// LinkOverride with bandwidth scale 0): it never completes, never
	// occupies bandwidth on the healthy links of its path, and its group —
	// hence the step and the lane — never finishes, making the measured
	// time +Inf.
	stalled bool
	// trace metadata (only used when a Recorder is attached)
	src, dst int
	bytes    float64
	started  float64 // on the lane's step-local clock
}

// groupRun tracks one group's progress through its rounds.
type groupRun struct {
	rounds   [][]transferSpec
	next     int     // next round index
	inflight int     // live transfers of the current round
	latency  float64 // per-round latency for this group
	startAt  float64 // step-local time the next round may start
}

// pending reports whether the group is between rounds, waiting out its
// latency before the next one.
func (g *groupRun) pending() bool { return g.inflight == 0 && g.next < len(g.rounds) }

// scheduleRounds unrolls the emulator view of cost.ScheduleOf — the same
// schedule value the analytic model consumes — over one concrete group into
// rounds of concurrent transfers. Rounds that repeat the same transfers (a
// ring's steps, the doubling phase mirroring the halving phase) share one
// slice; nothing downstream writes to a round.
func scheduleRounds(sys *topology.System, op collective.Op, g []int, perDevice float64, algo cost.Algorithm) [][]transferSpec {
	n := len(g)
	sch := cost.ScheduleOf(op, algo, n, perDevice)
	rounds := make([][]transferSpec, 0, sch.Rounds)
	switch sch.Pattern {
	case cost.PatternRing:
		round := make([]transferSpec, n)
		for i := range round {
			a, b := cost.RingLink(n, i)
			round[i] = transferSpec{src: g[a], dst: g[b], bytes: sch.RoundBytes}
		}
		for r := 0; r < sch.Rounds; r++ {
			rounds = append(rounds, round)
		}
	case cost.PatternChain:
		round := make([]transferSpec, n-1)
		for i := range round {
			src, dst := cost.ChainLink(i)
			if sch.TowardRoot {
				src, dst = dst, src
			}
			round[i] = transferSpec{src: g[src], dst: g[dst], bytes: sch.RoundBytes}
		}
		rounds = append(rounds, round)
	case cost.PatternTree:
		links := cost.TreeLinks(sys, g)
		for r := 0; r < sch.Rounds; r++ {
			round := make([]transferSpec, len(links))
			for i, link := range links {
				src, dst := link[0], link[1]
				if sch.TowardRoot == (r == 0) {
					src, dst = dst, src
				}
				round[i] = transferSpec{src: src, dst: dst, bytes: sch.RoundBytes}
			}
			rounds = append(rounds, round)
		}
	case cost.PatternHalvingDoubling:
		// Fold, halving levels 0…, doubling levels …0, unfold; p = n folds nothing.
		p := cost.CorePow2(n)
		fold, unfold := make([]transferSpec, n-p), make([]transferSpec, n-p)
		for k := p; k < n; k++ {
			a, b := cost.FoldLink(p, k)
			fold[k-p] = transferSpec{src: g[a], dst: g[b], bytes: sch.RoundBytes}
			unfold[k-p] = transferSpec{src: g[b], dst: g[a], bytes: sch.RoundBytes}
		}
		if p < n {
			rounds = append(rounds, fold)
		}
		first := len(rounds)
		for r := 0; 1<<r < p; r++ {
			round, bytes := make([]transferSpec, p), sch.RoundBytes/float64(int(2)<<r)
			for i := range round {
				a, b := cost.CoreLink(r, i)
				round[i] = transferSpec{src: g[a], dst: g[b], bytes: bytes}
			}
			rounds = append(rounds, round)
		}
		for r := len(rounds) - 1; r >= first; r-- {
			rounds = append(rounds, rounds[r])
		}
		if p < n {
			rounds = append(rounds, unfold)
		}
	}
	return rounds
}

// fuseStepsAlgos applies the XLA peephole: consecutive AllReduce steps are
// merged into a single AllReduce over the connected components of their
// groups, which reduces exactly the same data (AllReduce composition is
// associative over components). An optional per-step algorithm assignment
// rides alongside: steps assigned different algorithms would not be fused
// by XLA into one collective, so they only merge when their algorithms
// agree, and the fused step inherits the shared algorithm.
func fuseStepsAlgos(steps []lower.Step, algos []cost.Algorithm) ([]lower.Step, []cost.Algorithm) {
	out := make([]lower.Step, 0, len(steps))
	var outAlgos []cost.Algorithm
	if algos != nil {
		outAlgos = make([]cost.Algorithm, 0, len(algos))
	}
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

// mergeGroups unions two partitions into connected components. It returns
// nil when the components would be ragged (different sizes), in which case
// fusion is skipped.
func mergeGroups(a, b [][]int) [][]int {
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p != x {
			parent[x] = find(p)
		}
		return parent[x]
	}
	union := func(x, y int) {
		parent[find(x)] = find(y)
	}
	for _, gs := range [][][]int{a, b} {
		for _, g := range gs {
			for _, d := range g[1:] {
				union(g[0], d)
			}
		}
	}
	comps := map[int][]int{}
	var roots []int
	//p2:order-independent components and their members are fully sorted before return; the ragged-size nil outcome is order-invariant
	for x := range parent {
		r := find(x)
		if _, ok := comps[r]; !ok {
			roots = append(roots, r)
		}
		comps[r] = append(comps[r], x)
	}
	var out [][]int
	size := -1
	for _, r := range roots {
		c := comps[r]
		sort.Ints(c)
		if size < 0 {
			size = len(c)
		} else if len(c) != size {
			return nil
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// noiseStream yields deterministic pseudo-random values in [0, 1).
type noiseStream struct {
	state uint64
}

func newNoise(seed uint64) *noiseStream {
	return &noiseStream{state: seed | 1}
}

func (n *noiseStream) next(vals ...int) float64 {
	x := n.state
	for _, v := range vals {
		x ^= uint64(v+0x9e37) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
	}
	x ^= x >> 32
	n.state = n.state*6364136223846793005 + 1442695040888963407
	return float64(x%1_000_003) / 1_000_003
}

// fingerprintAlgos folds a per-step algorithm assignment into a noise
// fingerprint; a nil assignment leaves it unchanged, so fixed-algorithm
// runs keep their historical noise streams.
func fingerprintAlgos(h uint64, stepAlgos []cost.Algorithm) uint64 {
	for _, a := range stepAlgos {
		h = (h ^ uint64(int(a)+1)) * 1099511628211
	}
	return h
}

func fingerprint(name string, algo int, key string) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(b byte) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	for i := 0; i < len(name); i++ {
		mix(name[i])
	}
	mix(byte(algo))
	for i := 0; i < len(key); i++ {
		mix(key[i])
	}
	return h
}
