package cost

import (
	"math"
	"testing"

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
	variants := map[*topology.System][]*topology.System{}
	for _, tc := range scorerCases(t) {
		vs, ok := variants[tc.sys]
		if !ok {
			vs = []*topology.System{
				tc.sys.MustWithOverrides(everyLink(tc.sys, identity)...),
				tc.sys.MustWithOverrides(everyLink(tc.sys, composed)...),
			}
			if !vs[1].HasOverrides() {
				t.Fatalf("%s: the composed identity did not take the per-link path", tc.sys.Name)
			}
			variants[tc.sys] = vs
		}
		for _, algo := range ExtendedAlgorithms {
			want := &Model{Sys: tc.sys, Algo: algo, Bytes: DefaultPayload(tc.sys)}
			for si, st := range tc.lp.Steps {
				w := math.Float64bits(want.StepTime(st))
				for vi, sys := range vs {
					m := &Model{Sys: sys, Algo: algo, Bytes: want.Bytes}
					if got := math.Float64bits(m.StepTime(st)); got != w {
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
					if lo, hi := m.StepTime(st), double.StepTime(st); hi < lo {
						t.Fatalf("%s %v step %d algo %v: %v B takes %v s, %v B takes %v s",
							tc.sys.Name, tc.lp, si, algo, bytes, lo, 2*bytes, hi)
					}
				}
			}
		}
	}
}
