package plan

import (
	"context"
	"math/rand"
	"testing"

	"p2/internal/cost"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
	"p2/internal/topology"
)

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
		// down (down ⇒ bound +Inf and predicted +Inf; Inf > Inf is false).
		{topology.A100System(2).MustWithOverrides(
			topology.Throttle(1, 3, 10)), []int{4, 8}, []int{0}},
		{topology.SuperPodSystem(2, 4).MustWithOverrides(
			topology.Down(1, 5), topology.Slow(0, 0, 8)), []int{8, 8}, []int{0}},
		{topology.Fig2aSystem().MustWithOverrides(
			topology.Lossy(3, 7, 0.5), topology.Throttle(0, 0, 4),
			topology.Slow(2, 1, 16)), []int{4, 4}, []int{0}},
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
			bound := placementBound(tc.sys, h, bytes)
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
			bound := placementBound(sys, h, bytes)
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
		bound := placementBound(sys, h, bytes)
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
		want[i] = placementBound(sys, h, bytes) // fresh scratch each call
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

// TestMemoCap: a capped planner must return identical results while
// keeping the memo bounded (extra signatures synthesize uncached).
func TestMemoCap(t *testing.T) {
	sys := topology.SuperPodSystem(2, 4)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.DefaultPayload(sys)}
	free, freeStats, err := New().RunCtx(context.Background(), matrices, []int{0}, model, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	capped := New(WithMemoCap(1))
	got, cappedStats, err := capped.RunCtx(context.Background(), matrices, []int{0}, model, Options{Parallelism: 1})
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
