package cost

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"p2/internal/collective"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/topology"
)

// perEdgeStepTime is the step time as the Scorer computed it before it
// counted Ring, Chain and Tree steps: every link of every physical group routed
// in step order, its volume added to each uplink it loads, the latency the
// slowest divergence-level endpoint of any link.
func perEdgeStepTime(m *Model, st lower.Step, algo Algorithm) float64 {
	if len(st.Groups) == 0 {
		return 0
	}
	sys := m.Sys
	sch := ScheduleOf(st.Op, algo, st.GroupSize(), st.FracIn()*m.Bytes)
	traffic := map[int]float64{}
	maxLat := 0.0
	for _, g := range st.Groups {
		var links [][2]int
		var bytes []float64
		if sch.Pattern == PatternTree {
			for _, l := range TreeLinks(sys, g) {
				links, bytes = append(links, l), append(bytes, sch.LinkBytes)
			}
		} else {
			for _, e := range sch.edges(len(g)) {
				links, bytes = append(links, [2]int{g[e.a], g[e.b]}), append(bytes, e.bytes)
			}
		}
		for k, l := range links {
			path := sys.Route(l[0], l[1], nil)
			maxLat = max(maxLat, endpointLatency(sys, path))
			for _, i := range path {
				traffic[i] += bytes[k]
			}
		}
	}
	worst := 0.0
	offsets := sys.EntityOffsets()
	for i, b := range traffic {
		l := 0
		for l+1 < sys.NumLevels() && i >= offsets[l+1] {
			l++
		}
		if bw := sys.LinkBandwidth(l, i-offsets[l]); !(bw > 0) {
			worst = math.Inf(1)
		} else {
			worst = max(worst, b/bw)
		}
	}
	return worst + float64(sch.LatencyRounds)*maxLat
}

// genSystem draws a system of two to four levels and at most 96 devices,
// each level's uplink slower the closer it is to the root.
func genSystem(rng *rand.Rand) *topology.System {
	for {
		levels := make([]topology.Level, 2+rng.IntN(3))
		links := make([]topology.Link, len(levels))
		n := 1
		for l := range levels {
			levels[l] = topology.Level{Name: fmt.Sprintf("l%d", l), Count: 1 + rng.IntN(4)}
			links[l] = topology.Link{Name: fmt.Sprintf("up%d", l),
				Bandwidth: float64(1+l) * (1e9 + float64(rng.IntN(1000))*1e6), Latency: float64(len(levels)-l) * 1e-6 * (1 + rng.Float64())}
			n *= levels[l].Count
		}
		if n >= 4 && n <= 96 {
			return topology.MustNew("generated", levels, links)
		}
	}
}

// degrade throttles, slows and takes down random uplinks of sys; down
// only when asked.
func degrade(t *testing.T, rng *rand.Rand, sys *topology.System, down bool) *topology.System {
	var spec []string
	for l := range sys.NumLevels() {
		for e := range sys.EntitiesAt(l) {
			switch rng.IntN(6) {
			case 0:
				spec = append(spec, fmt.Sprintf("%d:%d:bw/%d", l, e, 2+rng.IntN(8)))
			case 1:
				spec = append(spec, fmt.Sprintf("%d:%d:lat*%d", l, e, 2+rng.IntN(8)))
			}
		}
	}
	if down {
		l := rng.IntN(sys.NumLevels())
		spec = append(spec, fmt.Sprintf("%d:%d:down", l, rng.IntN(sys.EntitiesAt(l))))
	}
	if len(spec) == 0 {
		return sys
	}
	return withFaults(t, sys, strings.Join(spec, ";"))
}

// TestReplicatedStepTimeMatchesPerEdge: on generated systems — pristine,
// degraded and with a down link — and generated placements, every
// candidate instruction of the reduction hierarchy, at a generated payload
// fraction, scores under every algorithm exactly as per-edge accumulation
// over its bound physical groups: StepTimeAlgo on the physical step, and,
// for a counted schedule, StepTimeReplicated on replica 0's groups. One
// Scorer is reused throughout. Each counted pattern must be compared often
// over several replicas, so that a pattern falling back to the physical
// groups shows.
func TestReplicatedStepTimeMatchesPerEdge(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 2))
	sc := new(Scorer)
	var rp Replicas
	replicated := map[Pattern]int{}
	for trial := 0; trial < 60; trial++ {
		base := genSystem(rng)
		n := base.NumDevices()
		var axes []int
		for d := 2; d < n; d++ {
			if n%d == 0 && rng.IntN(2) == 0 {
				axes = []int{d, n / d}
				break
			}
		}
		if axes == nil {
			axes = []int{n}
		}
		ms, err := placement.Enumerate(base.Hierarchy(), axes)
		if err != nil {
			t.Fatal(err)
		}
		m := ms[rng.IntN(len(ms))]
		red := []int{rng.IntN(len(axes))}
		h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, red, hierarchy.Options{Collapse: rng.IntN(2) == 0})
		if h.K() < 2 {
			continue
		}
		for _, sys := range []*topology.System{base, degrade(t, rng, base, false), degrade(t, rng, base, true)} {
			rp.Reset(sys, h.ReplicaOffsets())
			for _, in := range synth.Candidates(h) {
				rows := 1 + rng.IntN(h.K())
				phys := lower.Step{Op: in.Op, Groups: lower.Bind(in, h), Rows: rows, K: h.K()}
				zero := phys
				zero.Groups, _ = lower.AppendBind(nil, nil, in, h, 1)
				for _, algo := range ExtendedAlgorithms {
					model := &Model{Sys: sys, Algo: algo, Bytes: 1e6 + 1.0/3}
					want := math.Float64bits(perEdgeStepTime(model, phys, algo))
					if got := math.Float64bits(sc.StepTimeAlgo(model, phys, algo)); got != want {
						t.Fatalf("%s %v %v %v %v: StepTimeAlgo %v, per edge %v", sys, sys.Overrides, m, in, algo,
							math.Float64frombits(got), math.Float64frombits(want))
					}
					pat := ScheduleOf(in.Op, algo, phys.GroupSize(), 0).Pattern
					if !pat.Counted() {
						continue
					}
					if h.Replicas() > 1 {
						replicated[pat]++
					}
					if got := math.Float64bits(sc.StepTimeReplicated(model, zero, &rp, algo)); got != want {
						t.Fatalf("%s %v %v %v %v: StepTimeReplicated %v, per edge %v", sys, sys.Overrides, m, in, algo,
							math.Float64frombits(got), math.Float64frombits(want))
					}
				}
			}
		}
	}
	for _, f := range []struct {
		name  string
		pat   Pattern
		floor int
	}{{"ring", PatternRing, 1000}, {"chain", PatternChain, 100}, {"tree", PatternTree, 1000}} {
		if got := replicated[f.pat]; got < f.floor {
			t.Errorf("only %d %s steps compared over several replicas, want %d", got, f.name, f.floor)
		}
	}
}

// TestStepTimeReplicatedRefuses: a Replicas reset for another system, or a
// halving-doubling schedule over several replicas, panics instead of
// scoring wrong.
func TestStepTimeReplicatedRefuses(t *testing.T) {
	sys := topology.Fig2aSystem()
	model := &Model{Sys: sys, Bytes: 1}
	st := lower.Step{Op: collective.AllReduce, Groups: [][]int{{0, 1}}, Rows: 1, K: 2}
	var other, two Replicas
	other.Reset(topology.A100System(2), []int{0})
	two.Reset(sys, []int{0, 8})
	for _, tc := range []struct {
		name string
		rp   *Replicas
		algo Algorithm
	}{{"other system", &other, Ring}, {"halving-doubling", &two, HalvingDoubling}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			new(Scorer).StepTimeReplicated(model, st, tc.rp, tc.algo)
		}()
	}
}

// TestStepTimeReplicatedZeroAlloc: a warm Scorer scores a replicated step
// under Ring and Tree without allocating.
func TestStepTimeReplicatedZeroAlloc(t *testing.T) {
	sys := topology.SuperPodSystem(4, 4)
	m, err := placement.ParseMatrix("[[2 2 4] [2 2 2]]", sys.Hierarchy(), []int{16, 8})
	if err != nil {
		t.Fatal(err)
	}
	h := hierarchy.MustBuild(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	var rp Replicas
	rp.Reset(sys, h.ReplicaOffsets())
	sc := NewScorer(sys)
	var steps []lower.Step
	for _, in := range synth.Candidates(h) {
		g, _ := lower.AppendBind(nil, nil, in, h, 1)
		steps = append(steps, lower.Step{Op: in.Op, Groups: g, Rows: 1, K: h.K()})
	}
	model := &Model{Sys: sys, Algo: Ring, Bytes: DefaultPayload(sys)}
	score := func() {
		for _, st := range steps {
			sc.StepTimeReplicated(model, st, &rp, Ring)
			sc.StepTimeReplicated(model, st, &rp, Tree)
		}
	}
	score()
	if allocs := testing.AllocsPerRun(10, score); allocs != 0 {
		t.Errorf("warm replicated scoring allocates %v times, want 0", allocs)
	}
}
