package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"p2/internal/cost"
	"p2/internal/factor"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/topology"
)

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

// TestPlacementBoundAdmissible is the property the pruning correctness
// proof rests on: for every placement, the lower bound must never exceed
// the true predicted cost of ANY valid program under ANY algorithm in the
// extended set. A violation could silently evict a legitimate top-K
// candidate.
func TestPlacementBoundAdmissible(t *testing.T) {
	cases := []struct {
		sys  *topology.System
		axes []int
		red  []int
	}{
		{topology.Fig2aSystem(), []int{4, 4}, []int{0}},
		{topology.Fig2aSystem(), []int{2, 2, 4}, []int{0, 2}},
		{topology.A100System(2), []int{4, 8}, []int{0}},
		{topology.A100System(4), []int{16, 2, 2}, []int{0, 2}},
		{topology.V100System(2), []int{4, 4}, []int{1}},
		{topology.SuperPodSystem(2, 4), []int{8, 8}, []int{0}},
		// Non-power-of-two group sizes: HalvingDoubling now runs the
		// residual fold/unfold schedule here instead of falling back to
		// ring, and the bound must stay below it (the fold pre-round and
		// unfold post-round move 2·Bytes per split boundary — exactly the
		// flow the bound charges, see DESIGN.md §6.1).
		{topology.A100System(3), []int{3, 16}, []int{0}},
		{topology.SuperPodSystem(3, 2), []int{6, 8}, []int{0}},
		{topology.SuperPodSystem(3, 2), []int{4, 2, 6}, []int{0, 2}},
		// Override-carrying systems: the per-entity flow argument must keep
		// the bound admissible when links are throttled, slowed, lossy or
		// down (a down link adds no term to the bound).
		{withFaults(t, topology.A100System(2), "1:3:bw/10"), []int{4, 8}, []int{0}},
		{withFaults(t, topology.SuperPodSystem(2, 4), "1:5:down; 0:0:lat*8"), []int{8, 8}, []int{0}},
		{withFaults(t, topology.Fig2aSystem(), "3:7:loss=0.5; 0:0:bw/4; 2:1:lat*16"), []int{4, 4}, []int{0}},
	}
	for _, tc := range cases {
		matrices, err := placement.Enumerate(tc.sys.Hierarchy(), tc.axes)
		if err != nil {
			t.Fatal(err)
		}
		bytes := cost.DefaultPayload(tc.sys)
		for _, m := range matrices {
			h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, tc.red,
				hierarchy.Options{Collapse: len(tc.red) > 1})
			if err != nil {
				t.Fatal(err)
			}
			bound := new(boundScratch).placementBound(tc.sys, h, bytes)
			if bound < 0 {
				t.Fatalf("%s %v: negative bound %v", tc.sys.Name, m, bound)
			}
			for _, prog := range synth.Synthesize(h, synth.Options{}).Programs {
				lp, err := lower.Lower(prog, h)
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range cost.ExtendedAlgorithms {
					model := &cost.Model{Sys: tc.sys, Algo: algo, Bytes: bytes}
					if predicted := model.ProgramTime(lp); bound > predicted {
						t.Errorf("%s matrix %v program %v algo %v: bound %v exceeds predicted %v",
							tc.sys.Name, m, prog, algo, bound, predicted)
					}
				}
			}
		}
	}
}

// TestPlacementBoundAdmissibleRandomOverrides fuzzes the admissibility
// property over randomized override sets: arbitrary throttle/slow/loss
// combinations (including full outages) on arbitrary links must never push
// the bound above any program's predicted cost. Seeded for reproducibility.
func TestPlacementBoundAdmissibleRandomOverrides(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := topology.SuperPodSystem(2, 2) // [pod 2][node 4][gpu 8]: 3 levels
	axes, red := []int{4, 8}, []int{0}
	for trial := 0; trial < 20; trial++ {
		var ovs []topology.LinkOverride
		for n := 1 + rng.Intn(4); n > 0; n-- {
			l := rng.Intn(base.NumLevels())
			o := topology.LinkOverride{
				Level:          l,
				Entity:         rng.Intn(base.EntitiesAt(l)),
				BandwidthScale: 1,
				LatencyScale:   1,
			}
			switch rng.Intn(4) {
			case 0:
				o.BandwidthScale = 0 // down
			case 1:
				o.BandwidthScale = 0.05 + 0.95*rng.Float64()
			case 2:
				o.LatencyScale = 1 + 31*rng.Float64()
			case 3:
				o.LossFrac = 0.9 * rng.Float64()
			}
			ovs = append(ovs, o)
		}
		sys, err := base.WithOverrides(ovs...)
		if err != nil {
			t.Fatalf("trial %d overrides %+v: %v", trial, ovs, err)
		}
		matrices, err := placement.Enumerate(sys.Hierarchy(), axes)
		if err != nil {
			t.Fatal(err)
		}
		bytes := cost.DefaultPayload(sys)
		for _, m := range matrices {
			h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red, hierarchy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			bound := new(boundScratch).placementBound(sys, h, bytes)
			for _, prog := range synth.Synthesize(h, synth.Options{}).Programs {
				lp, err := lower.Lower(prog, h)
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range cost.ExtendedAlgorithms {
					model := &cost.Model{Sys: sys, Algo: algo, Bytes: bytes}
					if predicted := model.ProgramTime(lp); bound > predicted {
						t.Errorf("trial %d overrides %+v matrix %v program %v algo %v: bound %v exceeds predicted %v",
							trial, ovs, m, prog, algo, bound, predicted)
					}
				}
			}
		}
	}
}

// entityTerm is the bound without its volume term: the best per-entity
// flow term plus the latency term, scaled by boundSafety, from the
// definition — every (group, replica, level) charges each distinct entity
// it splits across once.
func entityTerm(sys *topology.System, h *hierarchy.Hierarchy, bytes float64) float64 {
	splits := map[[2]int]int{}
	crossed := sys.NumLevels()
	for u, grp := range h.Groups {
		if len(grp) < 2 || grp[0] != u {
			continue
		}
		for r := 0; r < h.Replicas(); r++ {
			for l := 0; l < sys.NumLevels(); l++ {
				ents := map[int]bool{}
				for _, v := range grp {
					ents[sys.EntityID(h.Leaves[v][r], l)] = true
				}
				if len(ents) < 2 {
					continue
				}
				crossed = min(crossed, l)
				for e := range ents {
					splits[[2]int{l, e}]++
				}
			}
		}
	}
	worst := 0.0
	for le, n := range splits {
		if b := sys.LinkBandwidth(le[0], le[1]); b > 0 {
			worst = max(worst, 2*bytes*float64(n)/b)
		}
	}
	lat := 0.0
	if crossed < sys.NumLevels() {
		lat = math.Inf(1)
		for l := 0; l <= crossed; l++ {
			lat = min(lat, sys.MinLinkLatency(l))
		}
	}
	return (worst + lat) * boundSafety
}

// TestPlacementBoundAdmissibleGenerated holds the bound admissible on
// generated systems: 2–3 levels with fan-outs 1–6 (non-powers of two
// among them), random per-level bandwidths and latencies, random
// overrides including outages, and every axes factorization (axes ≥ 2,
// up to three) with every reduce set. For every placement, synthesized
// program and algorithm of cost.ExtendedAlgorithms the bound is at most
// the prediction, and never below the per-entity term it extends.
func TestPlacementBoundAdmissibleGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	shapes := [][]int{{3, 5}, {3, 2, 2}, {6, 1, 4}, {2, 3}, {1, 6}, {5, 2, 2}}
	for len(shapes) < 12 {
		sh := make([]int, 2+rng.Intn(2))
		for i := range sh {
			sh[i] = 1 + rng.Intn(6)
		}
		if n := factor.Product(sh); n >= 4 && n <= 24 {
			shapes = append(shapes, sh)
		}
	}
	cases, checked := 0, 0
	for si, sh := range shapes {
		lv := make([]topology.Level, len(sh))
		up := make([]topology.Link, len(sh))
		for l, c := range sh {
			lv[l] = topology.Level{Name: fmt.Sprintf("l%d", l), Count: c}
			up[l] = topology.Link{Name: fmt.Sprintf("u%d", l), Bandwidth: 1e9 * math.Exp2(8*rng.Float64()), Latency: 20e-6 * rng.Float64()}
		}
		sys, err := topology.New(fmt.Sprintf("gen%d", si), lv, up)
		if err != nil {
			t.Fatal(err)
		}
		var ovs []topology.LinkOverride
		for n := rng.Intn(4); n > 0; n-- {
			l := rng.Intn(sys.NumLevels())
			o := topology.LinkOverride{Level: l, Entity: rng.Intn(sys.EntitiesAt(l)), BandwidthScale: 1, LatencyScale: 1}
			switch rng.Intn(4) {
			case 0:
				o.BandwidthScale = 0 // down
			case 1:
				o.BandwidthScale = 0.05 + 0.95*rng.Float64()
			case 2:
				o.LatencyScale = 1 + 31*rng.Float64()
			case 3:
				o.LossFrac = 0.9 * rng.Float64()
			}
			ovs = append(ovs, o)
		}
		if len(ovs) > 0 {
			if sys, err = sys.WithOverrides(ovs...); err != nil {
				t.Fatal(err)
			}
		}
		bytes := cost.DefaultPayload(sys)
		for k := 1; k <= 3; k++ {
			for _, axes := range factor.OrderedFactorizations(sys.NumDevices(), k) {
				if slices.Contains(axes, 1) {
					continue
				}
				matrices, err := placement.Enumerate(sys.Hierarchy(), axes)
				if err != nil {
					t.Fatal(err)
				}
				for mask := 1; mask < 1<<k; mask++ {
					var red []int
					for a := 0; a < k; a++ {
						if mask>>a&1 == 1 {
							red = append(red, a)
						}
					}
					cases++
					for _, m := range matrices {
						h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, red, hierarchy.Options{Collapse: len(red) > 1})
						if err != nil {
							t.Fatal(err)
						}
						bound := new(boundScratch).placementBound(sys, h, bytes)
						if old := entityTerm(sys, h, bytes); bound < old {
							t.Fatalf("%v axes %v reduce %v matrix %v: bound %v below the per-entity term %v", sys, axes, red, m, bound, old)
						}
						for _, prog := range synth.Synthesize(h, synth.Options{}).Programs {
							lp, err := lower.Lower(prog, h)
							if err != nil {
								t.Fatal(err)
							}
							for _, algo := range cost.ExtendedAlgorithms {
								model := &cost.Model{Sys: sys, Algo: algo, Bytes: bytes}
								if predicted := model.ProgramTime(lp); bound > predicted {
									t.Fatalf("%v overrides %+v axes %v reduce %v matrix %v program %v algo %v: bound %v exceeds predicted %v",
										sys, ovs, axes, red, m, prog, algo, bound, predicted)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d systems, %d (axes, reduce) cases, %d (placement, program, algorithm) checks", len(shapes), cases, checked)
}

// TestPlacementBoundTightOnHierarchicalStrategy pins the bound's teeth:
// on the canonical two-level A100 placement the bound must reach a good
// fraction of the best program's cost — a vacuous bound (say, 0) would
// pass admissibility while pruning nothing.
func TestPlacementBoundTightOnHierarchicalStrategy(t *testing.T) {
	sys := topology.A100System(2)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	bytes := cost.DefaultPayload(sys)
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: bytes}
	for _, m := range matrices {
		h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		bound := new(boundScratch).placementBound(sys, h, bytes)
		best := 0.0
		for _, prog := range synth.Synthesize(h, synth.Options{}).Programs {
			lp, err := lower.Lower(prog, h)
			if err != nil {
				t.Fatal(err)
			}
			if pt := model.ProgramTime(lp); best == 0 || pt < best {
				best = pt
			}
		}
		if bound < best/4 {
			t.Errorf("matrix %v: bound %v is <25%% of best program %v — too loose to prune", m, bound, best)
		}
	}
	// On a ring-optimal placement the volume term is exact: on a100:4
	// [8 8] placement 0 (eight groups of eight GPUs, each within one node)
	// the bandwidth part of the bound equals the best program's, so with
	// zero-latency links the bound is the best program up to boundSafety,
	// and with the preset's latencies it is short only by the latency
	// rounds the bound does not charge. The per-entity term alone is
	// 2(e−1)/e = 1.75 times looser there (e = 8 GPU entities per group).
	a100 := topology.A100System(4)
	flat := make([]topology.Link, len(a100.Uplinks))
	for i, u := range a100.Uplinks {
		flat[i] = topology.Link{Name: u.Name, Bandwidth: u.Bandwidth}
	}
	noLat, err := topology.New("a100-4node-nolat", a100.Levels, flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sys *topology.System
		tol float64
	}{{noLat, 2e-9}, {a100, 1e-3}} {
		matrices, err := placement.Enumerate(tc.sys.Hierarchy(), []int{8, 8})
		if err != nil {
			t.Fatal(err)
		}
		bytes := cost.DefaultPayload(tc.sys)
		model := &cost.Model{Sys: tc.sys, Algo: cost.Ring, Bytes: bytes}
		h, err := hierarchy.Build(hierarchy.KindReductionAxes, matrices[0], []int{0}, hierarchy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, prog := range synth.Synthesize(h, synth.Options{}).Programs {
			lp, err := lower.Lower(prog, h)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, model.ProgramTime(lp))
		}
		if bound := new(boundScratch).placementBound(tc.sys, h, bytes); bound > best || bound < best*(1-tc.tol) {
			t.Errorf("%s [8 8] matrix %v: bound %v, best program %v (ratio %v), want equal within %g",
				tc.sys.Name, matrices[0], bound, best, best/bound, tc.tol)
		}
	}
}

// TestPlacementBoundZeroAlloc locks the boundScratch refactor: after the
// first call grows the scratch to the system's size, every further bound
// — including on different placements, which exercise different splits
// entries — must allocate nothing and agree exactly with a fresh-scratch
// evaluation (i.e. the zero-on-exit discipline leaves no stale counters).
func TestPlacementBoundZeroAlloc(t *testing.T) {
	sys := topology.SuperPodSystem(2, 2)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	bytes := cost.DefaultPayload(sys)
	hs := make([]*hierarchy.Hierarchy, len(matrices))
	for i, m := range matrices {
		h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	want := make([]float64, len(hs))
	for i, h := range hs {
		want[i] = new(boundScratch).placementBound(sys, h, bytes) // fresh scratch each call
	}
	var bs boundScratch
	bs.placementBound(sys, hs[0], bytes) // warm-up: grow scratch once
	i := 0
	allocs := testing.AllocsPerRun(len(hs)*2, func() {
		j := i % len(hs)
		i++
		if got := bs.placementBound(sys, hs[j], bytes); got != want[j] {
			t.Fatalf("reused scratch bound %v != fresh scratch bound %v (stale state?)", got, want[j])
		}
	})
	if allocs != 0 {
		t.Errorf("placementBound allocates %v times per call on warm scratch, want 0", allocs)
	}
}

// BenchmarkPlacementBound is the analytic stage's per-placement cut: one
// op bounds all 18 placements of superpod:16x32 [64 64] reducing axis 0
// (the largest cold_topk shape) on one warm scratch.
func BenchmarkPlacementBound(b *testing.B) {
	sys := topology.SuperPodSystem(16, 32)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{64, 64})
	if err != nil {
		b.Fatal(err)
	}
	hs := make([]*hierarchy.Hierarchy, len(matrices))
	for i, m := range matrices {
		if hs[i], err = hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	bytes := cost.DefaultPayload(sys)
	var bs boundScratch
	bs.placementBound(sys, hs[0], bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range hs {
			bs.placementBound(sys, h, bytes)
		}
	}
}

// TestMemoCap: a capped planner must return identical results while
// keeping the memo bounded (extra signatures synthesize uncached).
func TestMemoCap(t *testing.T) {
	sys := topology.SuperPodSystem(2, 4)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.DefaultPayload(sys)}
	free, freeStats, err := New().RunStreamCtx(context.Background(), streamOf(matrices), []int{0}, model, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	capped := New(WithMemoCap(1))
	got, cappedStats, err := capped.RunStreamCtx(context.Background(), streamOf(matrices), []int{0}, model, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rankString(got) != rankString(free) {
		t.Error("memo cap changed the ranking")
	}
	if n := len(capped.memo); n > 1 {
		t.Errorf("memo holds %d entries, cap was 1", n)
	}
	if cappedStats.SynthRuns <= freeStats.SynthRuns {
		t.Errorf("capped planner synthesized %d times, uncapped %d — cap had no effect",
			cappedStats.SynthRuns, freeStats.SynthRuns)
	}
}
