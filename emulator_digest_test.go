package p2_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"p2"
	"p2/internal/netsim"
)

// TestEmulatorDigest pins the emulator on 200 generated cases with one
// FNV-1a digest. Each case draws a system (FuzzPlanEquivalence's
// generator, with its down, throttled, slow and lossy links, or a V100
// system with cross-domain slots and an optional fault), a request, and
// from its full ranking — in a ranking-independent order — one to three
// strategies: placements with their synthesized programs, under their
// algorithm, mixed per-step assignment or a redrawn fixed algorithm. The
// strategies run as lanes of one MeasureConcurrentSpecs call under drawn
// Options (seed, noise, launch overhead, fusion and cross-domain
// toggles) and payloads. The digest folds every lane's Float64bits and
// every field of every Recorder event, in stream order. It was recorded
// at 8718823, before the rate pass kept the rate of a transfer none of
// whose links changed share: lanes and overrides sharing links are where
// such a change would go wrong. A deliberate change to the emulator's
// arithmetic, the planner's candidate set or the generator re-records it.
func TestEmulatorDigest(t *testing.T) {
	const (
		cases      = 200
		wantDigest = 0x7a02e2e5e551fae
		wantEvents = 31738
	)
	h, events := uint64(14695981039346656037), 0
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	algos := []p2.Algorithm{p2.Ring, p2.Tree, p2.HalvingDoubling}
	for i := range cases {
		rng := rand.New(rand.NewPCG(45, uint64(i)))
		sys, n := digestSystem(t, rng)
		req := p2.Request{Axes: fuzzAxes(n, uint16(rng.Uint32()))}
		for a := range req.Axes {
			if rng.IntN(2) == 0 {
				req.ReduceAxes = append(req.ReduceAxes, a)
			}
		}
		if len(req.ReduceAxes) == 0 {
			req.ReduceAxes = []int{rng.IntN(len(req.Axes))}
		}
		req.Bytes = []float64{1e6, 3e7, 1e9}[rng.IntN(3)]
		if a := rng.IntN(4); a < 3 {
			req.Algo = algos[a]
		} else {
			req.Algos = p2.ExtendedAlgorithms
		}
		res, err := p2.Plan(sys, req)
		if err != nil {
			mix(uint64(i))
			continue
		}
		strats := slices.Clone(res.Strategies)
		slices.SortFunc(strats, func(a, b *p2.Strategy) int {
			return strings.Compare(fmt.Sprint(a.Matrix, a.Program, a.AlgoString()), fmt.Sprint(b.Matrix, b.Program, b.AlgoString()))
		})
		specs := make([]netsim.ConcurrentSpec, 1+rng.IntN(3))
		for l := range specs {
			s := strats[rng.IntN(len(strats))]
			specs[l] = netsim.ConcurrentSpec{Program: s.Lowered(), Bytes: req.Bytes * (0.5 + rng.Float64()),
				Algo: s.Algo(), StepAlgos: s.StepAlgos}
			if rng.IntN(4) == 0 {
				specs[l].Algo, specs[l].StepAlgos = algos[rng.IntN(3)], nil
			}
		}
		opts := netsim.Options{
			Seed:                  rng.Uint64(),
			NoiseFrac:             []float64{0, 0.01, 0.2}[rng.IntN(3)],
			LaunchOverhead:        []float64{0, 1e-6, 1e-4}[rng.IntN(3)],
			DisableNoise:          rng.IntN(4) == 0,
			DisableFusion:         rng.IntN(3) == 0,
			DisableLaunchOverhead: rng.IntN(5) == 0,
			DisableCrossDomain:    rng.IntN(4) == 0,
		}
		sim := &netsim.Simulator{Sys: sys, Opts: opts, Recorder: func(ev netsim.Event) {
			events++
			for _, v := range []int{ev.Step, ev.Group, int(ev.Op), ev.Src, ev.Dst} {
				mix(uint64(v))
			}
			for _, v := range []float64{ev.Bytes, ev.Start, ev.End} {
				mix(math.Float64bits(v))
			}
		}}
		for _, v := range sim.MeasureConcurrentSpecs(specs) {
			mix(math.Float64bits(v))
		}
	}
	if h != wantDigest || events != wantEvents {
		t.Errorf("digest %#x over %d events, want %#x over %d", h, events, uint64(wantDigest), wantEvents)
	}
}

// digestSystem draws TestEmulatorDigest's system: three times in four
// fuzzSystem's, otherwise a one- or two-node V100 system, whose PCIe
// domains add cross-domain slots, with one of three faults or none.
func digestSystem(t *testing.T, rng *rand.Rand) (*p2.System, int) {
	if rng.IntN(4) > 0 {
		return fuzzSystem(t, uint8(rng.Uint32()), rng.Uint32(), uint16(rng.Uint32()), uint16(rng.Uint32()))
	}
	sys := p2.V100System(1 + rng.IntN(2))
	if spec := []string{"", "gpu:*:bw*0.5", "gpu:3:bw/4,lat*2", "node:0:down"}[rng.IntN(4)]; spec != "" {
		ovs, err := p2.ParseFaults(sys, spec)
		if err == nil {
			sys, err = sys.WithOverrides(ovs...)
		}
		if err != nil {
			t.Fatalf("fault %q: %v", spec, err)
		}
	}
	return sys, sys.NumDevices()
}
