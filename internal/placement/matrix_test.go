package placement

import (
	"math/big"
	"reflect"
	"testing"
	"testing/quick"

	"p2/internal/topology"
)

var (
	fig2Hier = []int{1, 2, 2, 4}
	fig2Axes = []int{4, 4} // data parallelism 4, parameter shards 4
)

func TestFigure2MatricesAreValid(t *testing.T) {
	// The three placements shown in Fig. 2b/2c/2d.
	for _, rows := range [][][]int{
		{{1, 2, 2, 1}, {1, 1, 1, 4}},
		{{1, 2, 1, 2}, {1, 1, 2, 2}},
		{{1, 1, 2, 2}, {1, 2, 1, 2}},
	} {
		if _, err := NewMatrix(fig2Hier, fig2Axes, rows); err != nil {
			t.Errorf("Fig.2 matrix %v rejected: %v", rows, err)
		}
	}
}

func TestFigure2bInterpretation(t *testing.T) {
	// In Fig. 2b each CPU is one data-parallel replica and each GPU under
	// it holds one parameter shard: batch = server*2+cpu, shard = gpu.
	m := MustMatrix(fig2Hier, fig2Axes, [][]int{{1, 2, 2, 1}, {1, 1, 1, 4}})
	for dev := 0; dev < 16; dev++ {
		s, c, g := (dev/8)%2, (dev/4)%2, dev%4
		wantBatch := s*2 + c
		wantShard := g
		got := m.AxisCoords(dev)
		if got[0] != wantBatch || got[1] != wantShard {
			t.Errorf("dev %d: coords %v, want [%d %d]", dev, got, wantBatch, wantShard)
		}
	}
}

func TestFigure2dInterpretation(t *testing.T) {
	// Fig. 2d: [[1 1 2 2] [1 2 1 2]]. batch = cpu*2 + gpu/2,
	// shard = server*2 + gpu%2.
	m := MustMatrix(fig2Hier, fig2Axes, [][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	for dev := 0; dev < 16; dev++ {
		s, c, g := (dev/8)%2, (dev/4)%2, dev%4
		got := m.AxisCoords(dev)
		if want := c*2 + g/2; got[0] != want {
			t.Errorf("dev %d: batch %d, want %d", dev, got[0], want)
		}
		if want := s*2 + g%2; got[1] != want {
			t.Errorf("dev %d: shard %d, want %d", dev, got[1], want)
		}
	}
}

func TestDeviceAxisBijection(t *testing.T) {
	ms, err := Enumerate(fig2Hier, fig2Axes)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		seen := map[int]bool{}
		for dev := 0; dev < m.NumDevices(); dev++ {
			coords := m.AxisCoords(dev)
			back := m.Device(coords)
			if back != dev {
				t.Fatalf("%v: Device(AxisCoords(%d)) = %d", m, dev, back)
			}
			key := coords[0]*100 + coords[1]
			if seen[key] {
				t.Fatalf("%v: duplicate axis coords %v", m, coords)
			}
			seen[key] = true
		}
	}
}

func TestDeviceAxisBijectionQuick(t *testing.T) {
	m := MustMatrix([]int{4, 16}, []int{8, 8}, [][]int{{2, 4}, {2, 4}})
	f := func(raw uint16) bool {
		dev := int(raw) % m.NumDevices()
		return m.Device(m.AxisCoords(dev)) == dev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMatrixDeviceOffsets: on every preset shape and one to three axes,
// every matrix Iterate yields inverts AxisCoords on every device, its
// expanded address is the system's device id, and Device itself
// allocates nothing.
func TestMatrixDeviceOffsets(t *testing.T) {
	cases := []struct {
		sys  *topology.System
		axes [][]int
	}{
		{topology.Fig2aSystem(), [][]int{{16}, {4, 4}, {2, 2, 4}}},
		{topology.A100System(1), [][]int{{16}, {2, 8}, {2, 2, 4}}},
		{topology.A100System(2), [][]int{{32}, {4, 8}, {2, 4, 4}}},
		{topology.A100System(3), [][]int{{48}, {3, 16}, {3, 4, 4}}},
		{topology.A100System(4), [][]int{{64}, {4, 16}, {16, 2, 2}}},
		{topology.V100System(2), [][]int{{16}, {2, 8}, {2, 2, 4}}},
		{topology.V100System(4), [][]int{{32}, {4, 8}, {2, 4, 4}}},
		{topology.SuperPodSystem(2, 2), [][]int{{32}, {4, 8}, {2, 4, 4}}},
		{topology.SuperPodSystem(2, 4), [][]int{{64}, {8, 8}, {4, 4, 4}}},
		{topology.SuperPodSystem(3, 4), [][]int{{96}, {12, 8}, {3, 4, 8}}},
		{topology.SuperPodSystem(4, 8), [][]int{{256}, {16, 16}, {4, 8, 8}}},
		{topology.SuperPodSystem(8, 16), [][]int{{32, 32}}},
		{topology.SuperPodSystem(16, 32), [][]int{{64, 64}}},
	}
	for _, tc := range cases {
		hier := tc.sys.Hierarchy()
		for _, axes := range tc.axes {
			n := 0
			err := Iterate(hier, axes, func(m *Matrix) bool {
				n++
				for dev := 0; dev < m.NumDevices(); dev++ {
					if back := m.Device(m.AxisCoords(dev)); back != dev {
						t.Fatalf("%s %v %v: Device(AxisCoords(%d)) = %d", tc.sys.Name, axes, m, dev, back)
					}
					levels := make([]int, len(hier))
					for j := range levels {
						levels[j] = m.LevelCoord(dev, j)
					}
					if phys := tc.sys.Device(levels); phys != dev {
						t.Fatalf("%s %v %v: device %d has system id %d", tc.sys.Name, axes, m, dev, phys)
					}
				}
				coords := m.AxisCoords(m.NumDevices() - 1)
				if a := testing.AllocsPerRun(10, func() { m.Device(coords) }); a != 0 {
					t.Fatalf("%s %v %v: Device allocates %v times per call, want 0", tc.sys.Name, axes, m, a)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatalf("%s %v: no matrices", tc.sys.Name, axes)
			}
		}
	}
}

func TestReductionGroupFig2b(t *testing.T) {
	// Fig. 2b: reduction along parameter sharding = the 4 GPUs under each
	// CPU (communication over S0 only).
	m := MustMatrix(fig2Hier, fig2Axes, [][]int{{1, 2, 2, 1}, {1, 1, 1, 4}})
	got := m.ReductionGroup(0, []int{1})
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("group of dev0 = %v, want [0 1 2 3]", got)
	}
	got = m.ReductionGroup(5, []int{1})
	if !reflect.DeepEqual(got, []int{4, 5, 6, 7}) {
		t.Errorf("group of dev5 = %v, want [4 5 6 7]", got)
	}
}

func TestReductionGroupsPartition(t *testing.T) {
	ms, err := Enumerate([]int{4, 16}, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		for _, axes := range [][]int{{0}, {1}, {0, 1}} {
			groups := m.ReductionGroups(axes)
			seen := map[int]bool{}
			total := 0
			for _, g := range groups {
				wantSize := 1
				for _, a := range axes {
					wantSize *= m.Axes[a]
				}
				if len(g) != wantSize {
					t.Fatalf("%v axes %v: group size %d, want %d", m, axes, len(g), wantSize)
				}
				for _, d := range g {
					if seen[d] {
						t.Fatalf("%v axes %v: device %d in two groups", m, axes, d)
					}
					seen[d] = true
					total++
				}
			}
			if total != m.NumDevices() {
				t.Fatalf("%v axes %v: groups cover %d of %d devices", m, axes, total, m.NumDevices())
			}
		}
	}
}

func TestEnumerateMatchesPaperCounts(t *testing.T) {
	// From the appendix table for 4 nodes × 16 A100 (hierarchy [4 16]):
	// axes [2 32] has 2 matrices, [4 16] has 3, [8 8] has 3, [16 4] has 3,
	// [32 2] has 2.
	cases := []struct {
		axes []int
		want int
	}{
		{[]int{2, 32}, 2},
		{[]int{4, 16}, 3},
		{[]int{8, 8}, 3},
		{[]int{16, 4}, 3},
		{[]int{32, 2}, 2},
		{[]int{64}, 1},
	}
	for _, c := range cases {
		ms, err := Enumerate([]int{4, 16}, c.axes)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != c.want {
			t.Errorf("Enumerate([4 16], %v): %d matrices, want %d", c.axes, len(ms), c.want)
		}
	}
}

func TestEnumeratePaperMatricesPresent(t *testing.T) {
	ms, err := Enumerate([]int{4, 16}, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"[[1 4] [4 4]]", "[[2 2] [2 8]]", "[[4 1] [1 16]]"}
	for _, w := range wants {
		found := false
		for _, m := range ms {
			if m.String() == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("matrix %s not enumerated; got %v", w, ms)
		}
	}
}

func TestEnumerateThreeAxes(t *testing.T) {
	// Appendix: [16 2 2] on [4 16] lists 4 representative matrices; ensure
	// they are all enumerated, with valid products.
	ms, err := Enumerate([]int{4, 16}, []int{16, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"[[1 16] [2 1] [2 1]]",
		"[[2 8] [2 1] [1 2]]",
		"[[2 8] [1 2] [2 1]]",
		"[[4 4] [1 2] [1 2]]",
	}
	have := map[string]bool{}
	for _, m := range ms {
		have[m.String()] = true
	}
	for _, w := range wants {
		if !have[w] {
			t.Errorf("matrix %s not enumerated", w)
		}
	}
}

func TestEnumerateErrors(t *testing.T) {
	if _, err := Enumerate([]int{4, 16}, []int{3, 3}); err == nil {
		t.Error("mismatched product accepted")
	}
	if _, err := Enumerate(nil, nil); err == nil {
		t.Error("empty inputs accepted")
	}
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix([]int{2, 2}, []int{4}, [][]int{{2, 4}}); err == nil {
		t.Error("bad row product accepted")
	}
	if _, err := NewMatrix([]int{2, 2}, []int{2, 2}, [][]int{{2, 1}, {2, 1}}); err == nil {
		t.Error("bad column product accepted")
	}
	if _, err := NewMatrix([]int{2}, []int{2, 1}, [][]int{{2}}); err == nil {
		t.Error("row count mismatch accepted")
	}
}

func TestNaivePlacementCount(t *testing.T) {
	got := NaivePlacementCount([]int{4, 4})
	// 16! = 20922789888000 > 2^44, the paper's intro claim.
	want, _ := new(big.Int).SetString("20922789888000", 10)
	if got.Cmp(want) != 0 {
		t.Errorf("NaivePlacementCount = %v, want %v", got, want)
	}
	two44 := new(big.Int).Lsh(big.NewInt(1), 44)
	if got.Cmp(two44) <= 0 {
		t.Error("16! should exceed 2^44")
	}
}

func TestMatrixString(t *testing.T) {
	m := MustMatrix([]int{4, 16}, []int{2, 32}, [][]int{{1, 2}, {4, 8}})
	if got := m.String(); got != "[[1 2] [4 8]]" {
		t.Errorf("String = %q", got)
	}
}

func TestMatrixEqual(t *testing.T) {
	a := MustMatrix([]int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}})
	b := MustMatrix([]int{4, 16}, []int{4, 16}, [][]int{{1, 4}, {4, 4}})
	c := MustMatrix([]int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	if !a.Equal(b) {
		t.Error("identical matrices not Equal")
	}
	if a.Equal(c) {
		t.Error("distinct matrices Equal")
	}
}

func TestParseRows(t *testing.T) {
	rows, err := ParseRows("[[1 4] [4 4]]")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, [][]int{{1, 4}, {4, 4}}) {
		t.Errorf("ParseRows = %v", rows)
	}
	rows, err = ParseRows("[[1,4],[4,4]]")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, [][]int{{1, 4}, {4, 4}}) {
		t.Errorf("ParseRows with commas = %v", rows)
	}
}

func TestParseRowsErrors(t *testing.T) {
	for _, s := range []string{"", "[]", "[[1 2] [3]]", "[[1 2]", "[[a b]]", "[[1 2] junk]"} {
		if _, err := ParseRows(s); err == nil {
			t.Errorf("ParseRows(%q) succeeded", s)
		}
	}
}

func TestParseVector(t *testing.T) {
	v, err := ParseVector("[4 16]")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, []int{4, 16}) {
		t.Errorf("ParseVector = %v", v)
	}
	if _, err := ParseVector("4 16"); err == nil {
		t.Error("unbracketed vector accepted")
	}
}

func TestParseMatrixRoundTrip(t *testing.T) {
	ms, err := Enumerate([]int{4, 16}, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		back, err := ParseMatrix(m.String(), []int{4, 16}, []int{8, 8})
		if err != nil {
			t.Fatalf("ParseMatrix(%s): %v", m, err)
		}
		if !m.Equal(back) {
			t.Errorf("round trip changed %s to %s", m, back)
		}
	}
}

func TestLevelCoord(t *testing.T) {
	m := MustMatrix(fig2Hier, fig2Axes, [][]int{{1, 1, 2, 2}, {1, 2, 1, 2}})
	for dev := 0; dev < 16; dev++ {
		want := []int{0, (dev / 8) % 2, (dev / 4) % 2, dev % 4}
		for j := 0; j < 4; j++ {
			if got := m.LevelCoord(dev, j); got != want[j] {
				t.Errorf("LevelCoord(%d,%d) = %d, want %d", dev, j, got, want[j])
			}
		}
	}
}
