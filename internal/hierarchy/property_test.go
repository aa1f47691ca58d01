package hierarchy

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"p2/internal/placement"
	"p2/internal/topology"
)

// allConfigs yields a diverse set of (matrix, reduceAxes) pairs including
// non-power-of-two sizes and three hardware levels.
func allConfigs(t *testing.T) []struct {
	m   *placement.Matrix
	red []int
} {
	t.Helper()
	type cfg struct {
		hier, axes []int
		reds       [][]int
	}
	cfgs := []cfg{
		{[]int{1, 2, 2, 4}, []int{4, 4}, [][]int{{0}, {1}, {0, 1}}},
		{[]int{4, 16}, []int{8, 8}, [][]int{{0}, {1}}},
		{[]int{2, 2, 4}, []int{4, 4}, [][]int{{0}, {1}}},
		{[]int{3, 6}, []int{2, 9}, [][]int{{0}, {1}}},
		{[]int{4, 16}, []int{8, 2, 4}, [][]int{{0, 2}, {1}}},
	}
	var out []struct {
		m   *placement.Matrix
		red []int
	}
	for _, c := range cfgs {
		ms, err := placement.Enumerate(c.hier, c.axes)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			for _, red := range c.reds {
				out = append(out, struct {
					m   *placement.Matrix
					red []int
				}{m, red})
			}
		}
	}
	return out
}

// TestLeavesPartitionDevices: for every hierarchy kind and config, the
// leaves' replica lists cover every physical device exactly once.
func TestLeavesPartitionDevices(t *testing.T) {
	for _, c := range allConfigs(t) {
		for _, kind := range Kinds {
			opts := Options{}
			h, err := Build(kind, c.m, c.red, opts)
			if err != nil {
				t.Fatalf("%v %v %v: %v", kind, c.m, c.red, err)
			}
			seen := map[int]int{}
			for _, devs := range leaves(h) {
				for _, d := range devs {
					seen[d]++
				}
			}
			if len(seen) != c.m.NumDevices() {
				t.Errorf("%v %v red %v: %d devices covered of %d",
					kind, c.m, c.red, len(seen), c.m.NumDevices())
			}
			for d, n := range seen {
				if n != 1 {
					t.Errorf("%v %v red %v: device %d appears %d times", kind, c.m, c.red, d, n)
				}
			}
			if h.K()*h.Replicas() != c.m.NumDevices() {
				t.Errorf("%v %v: K×Replicas = %d×%d != %d devices",
					kind, c.m, h.K(), h.Replicas(), c.m.NumDevices())
			}
		}
	}
}

// TestUniverseSizeMatchesSizes: K equals the product of level sizes.
func TestUniverseSizeMatchesSizes(t *testing.T) {
	for _, c := range allConfigs(t) {
		for _, kind := range Kinds {
			h, err := Build(kind, c.m, c.red, Options{})
			if err != nil {
				t.Fatal(err)
			}
			prod := 1
			for _, s := range h.Sizes {
				prod *= s
			}
			if prod != h.K() {
				t.Errorf("%v %v: ∏Sizes = %d, K = %d", kind, c.m, prod, h.K())
			}
		}
	}
}

// TestReplicaColumnsAreReductionGroups: for the reduction-axes hierarchy,
// fixing a replica index and sweeping leaves yields exactly one physical
// reduction group.
func TestReplicaColumnsAreReductionGroups(t *testing.T) {
	for _, c := range allConfigs(t) {
		h, err := Build(KindReductionAxes, c.m, c.red, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < h.Replicas(); r++ {
			col := make([]int, h.K())
			for u := 0; u < h.K(); u++ {
				col[u] = h.Device(u, r)
			}
			want := c.m.ReductionGroup(col[0], c.red)
			if !sameSet(col, want) {
				t.Errorf("%v red %v replica %d: column is not a reduction group", c.m, c.red, r)
			}
		}
	}
}

// TestCollapseInvariants: collapsing preserves the universe size and the
// leaf→device relation as a set, for multi-axis reductions.
func TestCollapseInvariants(t *testing.T) {
	ms, err := placement.Enumerate([]int{4, 16}, []int{8, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		plain, err := Build(KindReductionAxes, m, []int{0, 2}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		coll, err := Build(KindReductionAxes, m, []int{0, 2}, Options{Collapse: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.K() != coll.K() || plain.Replicas() != coll.Replicas() {
			t.Errorf("%v: collapse changed universe shape", m)
		}
		if len(coll.Sizes) > len(plain.Sizes) {
			t.Errorf("%v: collapse grew the hierarchy", m)
		}
		for _, rl := range coll.ReductionLevel {
			if !rl {
				t.Errorf("%v: collapsed hierarchy has a non-reduction level", m)
			}
		}
	}
}

// TestReductionLevelFlags: full hierarchies flag exactly the reduction
// axes' factor levels.
func TestReductionLevelFlags(t *testing.T) {
	m, err := placement.NewMatrix([]int{1, 2, 2, 4}, []int{4, 4},
		[][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(KindRowBased, m, []int{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sizes: [root, 2(a0), 2(a0), 2(a1), 2(a1)]; reduction axis is 1.
	want := []bool{true, false, false, true, true}
	for i, w := range want {
		if h.ReductionLevel[i] != w {
			t.Errorf("level %d: reduction = %v, want %v", i, h.ReductionLevel[i], w)
		}
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
	}
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}

// genMatrix draws a random placement: a hardware hierarchy of one to four
// levels (at most 96 devices, unit levels allowed), its devices split into
// one to three axes, one of the axes' placements, and a non-empty set of
// reduction axes.
func genMatrix(t *testing.T, rng *rand.Rand) (*placement.Matrix, []int) {
	t.Helper()
	for {
		hier := make([]int, 1+rng.IntN(4))
		n := 1
		for j := range hier {
			hier[j] = 1 + rng.IntN(4)
			n *= hier[j]
		}
		if n > 96 {
			continue
		}
		axes := make([]int, 1+rng.IntN(3))
		for i := range axes {
			axes[i] = 1
		}
		for p, rest := 2, n; rest > 1; {
			if rest%p != 0 {
				p++
				continue
			}
			axes[rng.IntN(len(axes))] *= p
			rest /= p
		}
		ms, err := placement.Enumerate(hier, axes)
		if err != nil {
			t.Fatal(err)
		}
		var red []int
		for i := range axes {
			if rng.IntN(2) == 0 {
				red = append(red, i)
			}
		}
		if len(red) == 0 {
			red = []int{rng.IntN(len(axes))}
		}
		return ms[rng.IntN(len(ms))], red
	}
}

// TestReplicaEntitiesAddWithoutCarry is the identity the cost model and
// the placement bound count one replica by: a leaf's replica r is its
// replica 0 shifted by ReplicaOffsets()[r], offset 0 is replica 0, and at
// every hardware level the shifted device's entity is the sum of the two
// entities — leaf and replica digits never carry into each other. Every
// kind, Collapse and KeepUnitLevels, on generated placements.
func TestReplicaEntitiesAddWithoutCarry(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 1))
	for trial := 0; trial < 300; trial++ {
		m, red := genMatrix(t, rng)
		levels := make([]topology.Level, len(m.Hier))
		links := make([]topology.Link, len(m.Hier))
		for j, c := range m.Hier {
			levels[j] = topology.Level{Name: fmt.Sprintf("l%d", j), Count: c}
			links[j] = topology.Link{Name: "link", Bandwidth: 1, Latency: 0}
		}
		sys := topology.MustNew("generated", levels, links)
		for _, kind := range Kinds {
			for _, opts := range []Options{{}, {Collapse: true}, {KeepUnitLevels: true}, {Collapse: true, KeepUnitLevels: true}} {
				h := MustBuild(kind, m, red, opts)
				offs := h.ReplicaOffsets()
				if len(offs) != h.Replicas() || offs[0] != 0 {
					t.Fatalf("%v %v r%v %+v: offsets %v", kind, m, red, opts, offs)
				}
				for u := range h.K() {
					base := h.Device(u, 0)
					for r, off := range offs {
						d := h.Device(u, r)
						if d != base+off {
							t.Fatalf("%v %v r%v %+v: Device(%d, %d) = %d, want %d+%d", kind, m, red, opts, u, r, d, base, off)
						}
						for l := range sys.NumLevels() {
							if got, want := sys.EntityID(d, l), sys.EntityID(base, l)+sys.EntityID(off, l); got != want {
								t.Fatalf("%v %v r%v %+v: leaf %d replica %d level %d: entity %d, want %d",
									kind, m, red, opts, u, r, l, got, want)
							}
						}
					}
				}
			}
		}
	}
}
