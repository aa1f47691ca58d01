package cost

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p2/internal/collective"
	"p2/internal/lower"
	"p2/internal/topology"
)

// everyLink returns one override per uplink of sys, built by mk.
func everyLink(sys *topology.System, mk func(l, e int) []topology.LinkOverride) []topology.LinkOverride {
	var ovs []topology.LinkOverride
	for l := 0; l < sys.NumLevels(); l++ {
		for e := 0; e < sys.EntitiesAt(l); e++ {
			ovs = append(ovs, mk(l, e)...)
		}
	}
	return ovs
}

// withFaults returns sys degraded by a fault spec in topology.ParseFaults's
// grammar.
func withFaults(t *testing.T, sys *topology.System, spec string) *topology.System {
	t.Helper()
	ovs, err := topology.ParseFaults(sys, spec)
	if err == nil {
		sys, err = sys.WithOverrides(ovs...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestIdentityOverrideIsPristine: an override that leaves every link as it
// is must leave every step time bit for bit as on the pristine system —
// both the literal identity (which keeps the uniform-link fast path) and a
// ×2 then ×½ pair on every link, which composes to exactly 1 but forces the
// per-link effective arrays.
func TestIdentityOverrideIsPristine(t *testing.T) {
	identity := func(l, e int) []topology.LinkOverride {
		return []topology.LinkOverride{{Level: l, Entity: e, BandwidthScale: 1, LatencyScale: 1}}
	}
	composed := func(l, e int) []topology.LinkOverride {
		return []topology.LinkOverride{
			{Level: l, Entity: e, BandwidthScale: 2, LatencyScale: 4},
			{Level: l, Entity: e, BandwidthScale: 0.5, LatencyScale: 0.25},
		}
	}
	if composed(0, 0)[0].Pristine() {
		t.Fatal("the composed identity would not take the per-link path")
	}
	variants := map[*topology.System][]*topology.System{}
	for _, tc := range scorerCases(t) {
		vs, ok := variants[tc.sys]
		if !ok {
			for _, mk := range []func(l, e int) []topology.LinkOverride{identity, composed} {
				v, err := tc.sys.WithOverrides(everyLink(tc.sys, mk)...)
				if err != nil {
					t.Fatal(err)
				}
				vs = append(vs, v)
			}
			variants[tc.sys] = vs
		}
		for _, algo := range ExtendedAlgorithms {
			want := &Model{Sys: tc.sys, Algo: algo, Bytes: DefaultPayload(tc.sys)}
			for si, st := range tc.lp.Steps {
				w := math.Float64bits(want.StepTimeAlgo(st, algo))
				for vi, sys := range vs {
					m := &Model{Sys: sys, Algo: algo, Bytes: want.Bytes}
					if got := math.Float64bits(m.StepTimeAlgo(st, algo)); got != w {
						t.Fatalf("%s %v step %d algo %v variant %d: %016x, pristine %016x",
							tc.sys.Name, tc.lp, si, algo, vi, got, w)
					}
				}
			}
		}
	}
}

// TestStepTimeMonotoneInBytes: doubling the payload never lowers a step
// time, on every step of scorerCases under every algorithm, from a tiny
// latency-bound payload up to the paper's default.
func TestStepTimeMonotoneInBytes(t *testing.T) {
	for _, tc := range scorerCases(t) {
		for _, algo := range ExtendedAlgorithms {
			for _, bytes := range []float64{1, 1e6 + 1.0/3, DefaultPayload(tc.sys)} {
				m := &Model{Sys: tc.sys, Algo: algo, Bytes: bytes}
				double := &Model{Sys: tc.sys, Algo: algo, Bytes: 2 * bytes}
				for si, st := range tc.lp.Steps {
					if lo, hi := m.StepTimeAlgo(st, algo), double.StepTimeAlgo(st, algo); hi < lo {
						t.Fatalf("%s %v step %d algo %v: %v B takes %v s, %v B takes %v s",
							tc.sys.Name, tc.lp, si, algo, bytes, lo, 2*bytes, hi)
					}
				}
			}
		}
	}
}

// scaleLinks returns sys with every uplink's bandwidth scaled by 2^k and
// its latency by 2^−k, overrides kept.
func scaleLinks(t *testing.T, sys *topology.System, k int) *topology.System {
	t.Helper()
	links := append([]topology.Link(nil), sys.Uplinks...)
	for i := range links {
		links[i].Bandwidth = math.Ldexp(links[i].Bandwidth, k)
		links[i].Latency = math.Ldexp(links[i].Latency, -k)
	}
	scaled, err := topology.New(sys.Name, sys.Levels, links)
	if err == nil && len(sys.Overrides) > 0 {
		scaled, err = scaled.WithOverrides(sys.Overrides...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return scaled
}

// TestStepTimeScalesWithLinks: scaling every bandwidth by 2^k and every
// latency by 2^−k scales every step time by exactly 2^−k — both terms of a
// step time are, and power-of-two scaling commutes with rounding — on
// every step of scorerCases under every algorithm, on each system pristine
// and degraded (a throttled, a slowed and a down link).
func TestStepTimeScalesWithLinks(t *testing.T) {
	variants := map[*topology.System][]*topology.System{}
	for _, tc := range scorerCases(t) {
		if variants[tc.sys] == nil {
			leaf := tc.sys.NumLevels() - 1
			variants[tc.sys] = []*topology.System{tc.sys,
				withFaults(t, tc.sys, fmt.Sprintf("1:0:bw/4; %d:2:lat*3; %d:1:down", leaf, leaf))}
		}
		for _, sys := range variants[tc.sys] {
			for _, k := range []int{-7, 3, 20} {
				scaled := scaleLinks(t, sys, k)
				for _, algo := range ExtendedAlgorithms {
					m := &Model{Sys: sys, Algo: algo, Bytes: DefaultPayload(sys)}
					mk := &Model{Sys: scaled, Algo: algo, Bytes: m.Bytes}
					for si, st := range tc.lp.Steps {
						want := math.Float64bits(math.Ldexp(m.StepTimeAlgo(st, algo), -k))
						if got := math.Float64bits(mk.StepTimeAlgo(st, algo)); got != want {
							t.Fatalf("%s %v step %d algo %v, links ×2^%d: %016x, want %016x",
								sys.Name, tc.lp, si, algo, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSameAnalyticScoresEqual: StepTimeAlgo reads its algorithm only
// through ScheduleOf, so whenever two algorithms' analytic views agree for
// a step (SameAnalytic), their step times are bit-equal — what lets the
// planner's per-step search skip the later of the two. Every op, every
// pair of ExtendedAlgorithms, group sizes 2…33, on generated disjoint
// groups of fig2a, superpod:3x4 and a degraded superpod:3x4.
func TestSameAnalyticScoresEqual(t *testing.T) {
	systems := []*topology.System{
		topology.Fig2aSystem(),
		topology.SuperPodSystem(3, 4),
		withFaults(t, topology.SuperPodSystem(3, 4), "1:2:bw/4; 2:13:lat*3; 2:40:down"),
	}
	rng := rand.New(rand.NewSource(1))
	agree, differ := 0, 0
	for _, sys := range systems {
		devices := sys.NumDevices()
		for n := 2; n <= 33 && n <= devices; n++ {
			perm := rng.Perm(devices)
			groups := make([][]int, 1+rng.Intn(devices/n))
			for i := range groups {
				groups[i] = perm[i*n : (i+1)*n]
			}
			for _, op := range collective.Ops {
				st := lower.Step{Op: op, Groups: groups, Rows: 1 + rng.Intn(4), RowsOut: 1, K: 4}
				m := &Model{Sys: sys, Bytes: []float64{1, 1e6 + 1.0/3, DefaultPayload(sys)}[rng.Intn(3)]}
				perDevice := st.FracIn() * m.Bytes
				for i, a := range ExtendedAlgorithms {
					for _, b := range ExtendedAlgorithms[i+1:] {
						if !ScheduleOf(op, a, n, perDevice).SameAnalytic(ScheduleOf(op, b, n, perDevice)) {
							differ++
							continue
						}
						agree++
						ta, tb := m.StepTimeAlgo(st, a), m.StepTimeAlgo(st, b)
						if math.Float64bits(ta) != math.Float64bits(tb) {
							t.Fatalf("%s %v n=%d: %v and %v agree analytically but score %v and %v", sys.Name, op, n, a, b, ta, tb)
						}
					}
				}
			}
		}
	}
	if agree == 0 || differ == 0 {
		t.Fatalf("vacuous: %d agreeing pairs, %d differing", agree, differ)
	}
	t.Logf("%d agreeing pairs, %d differing", agree, differ)
}
