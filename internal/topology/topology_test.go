package topology

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestFig2aBasics(t *testing.T) {
	s := Fig2aSystem()
	if got := s.NumDevices(); got != 16 {
		t.Fatalf("NumDevices = %d, want 16", got)
	}
	if got := s.NumLevels(); got != 4 {
		t.Fatalf("NumLevels = %d, want 4", got)
	}
	if got := s.Hierarchy(); !reflect.DeepEqual(got, []int{1, 2, 2, 4}) {
		t.Fatalf("Hierarchy = %v", got)
	}
	want := "[(rack, 1), (server, 2), (CPU, 2), (GPU, 4)]"
	if got := s.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestFig2aDeviceNames(t *testing.T) {
	s := Fig2aSystem()
	// Fig. 2a names the 16 GPUs A0..A3 (CPU A), B0..B3, C0..C3, D0..D3.
	wants := map[int]string{
		0:  "A0",
		3:  "A3",
		4:  "B0",
		7:  "B3",
		8:  "C0",
		12: "D0",
		15: "D3",
	}
	for dev, want := range wants {
		if got := s.DeviceName(dev); got != want {
			t.Errorf("DeviceName(%d) = %q, want %q", dev, got, want)
		}
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	s := Fig2aSystem()
	for d := 0; d < s.NumDevices(); d++ {
		if got := s.Device(s.Coords(d)); got != d {
			t.Errorf("Device(Coords(%d)) = %d", d, got)
		}
	}
}

func TestDivergenceLevel(t *testing.T) {
	s := Fig2aSystem()
	cases := []struct {
		a, b, want int
	}{
		{0, 0, -1},
		{0, 1, 3},  // A0 vs A1: same CPU, differ at GPU level
		{0, 4, 2},  // A0 vs B0: differ at CPU level
		{0, 8, 1},  // A0 vs C0: differ at server level
		{3, 15, 1}, // A3 vs D3
		{4, 6, 3},  // B0 vs B2
	}
	for _, c := range cases {
		if got := s.DivergenceLevel(c.a, c.b); got != c.want {
			t.Errorf("DivergenceLevel(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDivergenceLevelSymmetric(t *testing.T) {
	s := A100System(4)
	f := func(x, y uint8) bool {
		a := int(x) % s.NumDevices()
		b := int(y) % s.NumDevices()
		return s.DivergenceLevel(a, b) == s.DivergenceLevel(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupSpanLevel(t *testing.T) {
	s := Fig2aSystem()
	cases := []struct {
		group []int
		want  int
	}{
		{[]int{0}, -1},
		{[]int{0, 1, 2, 3}, 3},
		{[]int{0, 4}, 2},
		{[]int{0, 1, 4, 5}, 2},
		{[]int{0, 8}, 1},
		{[]int{0, 4, 8, 12}, 1},
	}
	for _, c := range cases {
		if got := s.GroupSpanLevel(c.group); got != c.want {
			t.Errorf("GroupSpanLevel(%v) = %d, want %d", c.group, got, c.want)
		}
	}
}

func TestEntityID(t *testing.T) {
	s := Fig2aSystem()
	// Devices 0..3 share CPU entity; 4..7 the next.
	for d := 0; d < 16; d++ {
		if got, want := s.EntityID(d, 2), d/4; got != want {
			t.Errorf("EntityID(%d, cpu) = %d, want %d", d, got, want)
		}
		if got, want := s.EntityID(d, 1), d/8; got != want {
			t.Errorf("EntityID(%d, server) = %d, want %d", d, got, want)
		}
	}
	if got := s.EntitiesAt(2); got != 4 {
		t.Errorf("EntitiesAt(cpu) = %d, want 4", got)
	}
}

// digitFold is the digit-by-digit reference for the address arithmetic:
// dev's per-level coordinates peeled off least significant first, an
// entity id folded from the root down, the divergence level as the first
// differing coordinate.
type digitFold struct{ s *System }

func (f digitFold) coords(dev int) []int {
	c := make([]int, len(f.s.Levels))
	for l := len(c) - 1; l >= 0; l-- {
		c[l] = dev % f.s.Levels[l].Count
		dev /= f.s.Levels[l].Count
	}
	return c
}

func (f digitFold) entity(dev, l int) int {
	id := 0
	for i, c := range f.coords(dev)[:l+1] {
		id = id*f.s.Levels[i].Count + c
	}
	return id
}

func (f digitFold) divergence(a, b int) int {
	ca, cb := f.coords(a), f.coords(b)
	for l := range ca {
		if ca[l] != cb[l] {
			return l
		}
	}
	return -1
}

// route is the uplinks a transfer a→b loads, from the definition: for
// each level from the divergence level down, a's entity then b's, each at
// the count of entities above its level plus its id.
func (f digitFold) route(a, b int) []int {
	var out []int
	ldiv := f.divergence(a, b)
	above, ents := 0, 1
	for l, lv := range f.s.Levels {
		ents *= lv.Count
		if ldiv >= 0 && l >= ldiv {
			out = append(out, above+f.entity(a, l), above+f.entity(b, l))
		}
		above += ents
	}
	return out
}

// checkRoute holds Route(a, b) to the digit-fold route: same indices,
// same order, appended after what the buffer already holds, divergence
// level NumLevels() − appended/2.
func checkRoute(t *testing.T, s *System, a, b int) {
	t.Helper()
	ref := digitFold{s}
	want := ref.route(a, b)
	got := s.Route(a, b, []int{-1})
	if got[0] != -1 || !slices.Equal(got[1:], want) {
		t.Fatalf("%s: Route(%d, %d) appended %v to [-1], want %v", s.Name, a, b, got[1:], want)
	}
	if a != b && s.NumLevels()-len(want)/2 != ref.divergence(a, b) {
		t.Fatalf("%s: Route(%d, %d) has %d entries, divergence level %d", s.Name, a, b, len(want), ref.divergence(a, b))
	}
}

// checkRouteAllocs asserts Route(a, b) into a warm buffer allocates nothing.
func checkRouteAllocs(t *testing.T, s *System, a, b int) {
	t.Helper()
	buf := make([]int, 0, 2*s.NumLevels())
	if allocs := testing.AllocsPerRun(10, func() { buf = s.Route(a, b, buf[:0]) }); allocs != 0 {
		t.Fatalf("%s: Route(%d, %d) into a warm buffer allocates %v times", s.Name, a, b, allocs)
	}
}

func (f digitFold) span(group []int) int {
	span := -1
	for _, d := range group[1:] {
		if l := f.divergence(group[0], d); l >= 0 && (span < 0 || l < span) {
			span = l
		}
	}
	return span
}

// TestEntityIDQuotient holds EntityID, DivergenceLevel, GroupSpanLevel and
// Route to the digit-fold reference on every preset shape, a
// non-power-of-two NewSystem and an overridden system: every device at
// every level (and routed to itself and to its mirror device), and seeded
// device pairs and groups. Route into a warm buffer allocates nothing.
func TestEntityIDQuotient(t *testing.T) {
	odd, err := New("odd",
		[]Level{{Name: "a", Count: 3}, {Name: "b", Count: 5}, {Name: "c", Count: 7}},
		[]Link{{Name: "x", Bandwidth: 1e9}, {Name: "y", Bandwidth: 2e9}, {Name: "z", Bandwidth: 4e9}})
	if err != nil {
		t.Fatal(err)
	}
	systems := []*System{
		A100System(1), A100System(2), A100System(3), A100System(4),
		V100System(2), V100System(4), Fig2aSystem(),
		SuperPodSystem(2, 2), SuperPodSystem(2, 4), SuperPodSystem(3, 4),
		SuperPodSystem(4, 8), SuperPodSystem(8, 16), SuperPodSystem(16, 32),
		odd,
		SuperPodSystem(3, 4).MustWithOverrides(Throttle(2, 13, 10), Slow(1, 5, 4)),
	}
	rng := rand.New(rand.NewSource(17))
	for _, s := range systems {
		ref := digitFold{s}
		n := s.NumDevices()
		for d := 0; d < n; d++ {
			for l := range s.Levels {
				if got, want := s.EntityID(d, l), ref.entity(d, l); got != want {
					t.Fatalf("%s: EntityID(%d, %d) = %d, want %d", s.Name, d, l, got, want)
				}
			}
			if got := s.DivergenceLevel(d, d); got != -1 {
				t.Fatalf("%s: DivergenceLevel(%d, %d) = %d, want -1", s.Name, d, d, got)
			}
			checkRoute(t, s, d, d)
			checkRoute(t, s, d, n-1-d)
		}
		checkRouteAllocs(t, s, 0, n-1)
		for i := 0; i < 2000; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if i%2 == 1 { // a near pair: it diverges below the root
				b = (a + rng.Intn(16)) % n
			}
			if got, want := s.DivergenceLevel(a, b), ref.divergence(a, b); got != want {
				t.Fatalf("%s: DivergenceLevel(%d, %d) = %d, want %d", s.Name, a, b, got, want)
			}
			checkRoute(t, s, a, b)
			g := make([]int, 1+rng.Intn(8))
			for j := range g {
				g[j] = rng.Intn(n)
				if i%2 == 1 {
					g[j] = (a + rng.Intn(16)) % n
				}
			}
			if got, want := s.GroupSpanLevel(g), ref.span(g); got != want {
				t.Fatalf("%s: GroupSpanLevel(%v) = %d, want %d", s.Name, g, got, want)
			}
		}
	}
}

func TestA100Preset(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		s := A100System(nodes)
		if got := s.NumDevices(); got != nodes*16 {
			t.Errorf("A100System(%d).NumDevices = %d", nodes, got)
		}
		if !reflect.DeepEqual(s.Hierarchy(), []int{nodes, 16}) {
			t.Errorf("A100System(%d).Hierarchy = %v", nodes, s.Hierarchy())
		}
		if s.Uplinks[0].Bandwidth != NICBandwidth {
			t.Errorf("node uplink bandwidth = %v", s.Uplinks[0].Bandwidth)
		}
		if s.Uplinks[1].Bandwidth != A100SwitchBandwidth {
			t.Errorf("gpu uplink bandwidth = %v", s.Uplinks[1].Bandwidth)
		}
		if s.CrossDomain != nil {
			t.Error("A100 should have no cross-domain model")
		}
	}
}

func TestV100Preset(t *testing.T) {
	s := V100System(4)
	if got := s.NumDevices(); got != 32 {
		t.Errorf("NumDevices = %d", got)
	}
	if s.CrossDomain == nil {
		t.Fatal("V100 must carry a cross-domain model")
	}
	if s.CrossDomain.DomainsPerNode != 2 {
		t.Errorf("DomainsPerNode = %d", s.CrossDomain.DomainsPerNode)
	}
	if s.Uplinks[1].Bandwidth != V100RingBandwidth {
		t.Errorf("ring bandwidth = %v", s.Uplinks[1].Bandwidth)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		levels  []Level
		uplinks []Link
	}{
		{"no levels", nil, nil},
		{"mismatched uplinks", []Level{{"n", 2}}, nil},
		{"zero count", []Level{{"n", 0}}, []Link{{"l", 1, 0}}},
		{"empty name", []Level{{"", 2}}, []Link{{"l", 1, 0}}},
		{"zero bandwidth", []Level{{"n", 2}}, []Link{{"l", 0, 0}}},
		{"negative latency", []Level{{"n", 2}}, []Link{{"l", 1, -1}}},
	}
	for _, c := range cases {
		if _, err := New(c.name, c.levels, c.uplinks); err == nil {
			t.Errorf("New(%s) succeeded, want error", c.name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := V100System(2)
	c := s.Clone()
	c.Levels[0].Count = 99
	c.Uplinks[0].Bandwidth = 1
	c.CrossDomain.DomainsPerNode = 4
	if s.Levels[0].Count == 99 || s.Uplinks[0].Bandwidth == 1 || s.CrossDomain.DomainsPerNode == 4 {
		t.Error("Clone shares state with original")
	}
}

func TestDeviceNameFallbackPath(t *testing.T) {
	// 64 parents > 26 letters: falls back to coordinate path.
	s := MustNew("big",
		[]Level{{Name: "node", Count: 64}, {Name: "gpu", Count: 2}},
		[]Link{{Name: "NIC", Bandwidth: 1e9}, {Name: "NVL", Bandwidth: 1e9}})
	name := s.DeviceName(3)
	if !strings.Contains(name, "/") {
		t.Errorf("expected path-style name, got %q", name)
	}
}

func TestWithCrossDomainValidation(t *testing.T) {
	s := A100System(2)
	defer func() {
		if recover() == nil {
			t.Error("invalid cross-domain model did not panic")
		}
	}()
	s.WithCrossDomain(CrossDomainModel{DomainsPerNode: 3, Bandwidth: 1e9})
}

func TestSuperPodPreset(t *testing.T) {
	s := SuperPodSystem(2, 4)
	if got := s.NumDevices(); got != 64 {
		t.Errorf("NumDevices = %d, want 64", got)
	}
	if got := s.NumLevels(); got != 3 {
		t.Errorf("NumLevels = %d, want 3", got)
	}
	// Bandwidth must decrease going up the hierarchy.
	if !(s.Uplinks[2].Bandwidth > s.Uplinks[1].Bandwidth &&
		s.Uplinks[1].Bandwidth > s.Uplinks[0].Bandwidth) {
		t.Error("uplink bandwidths not decreasing toward the root")
	}
	// Cross-pod traffic climbs to the spine, cross-node traffic to the IB
	// rail: the slowest uplink on each route.
	if got := s.Uplinks[0].Name; got != "Spine" {
		t.Errorf("pod uplink = %s", got)
	}
	if got := s.Uplinks[1].Name; got != "IBRail" {
		t.Errorf("node uplink = %s", got)
	}
}

func TestNumMachines(t *testing.T) {
	cases := []struct {
		sys  *System
		want int
	}{
		{A100System(4), 4},
		{V100System(2), 2},
		{SuperPodSystem(2, 4), 8},  // 2 pods × 4 nodes
		{SuperPodSystem(4, 8), 32}, // 4 pods × 8 nodes
		{Fig2aSystem(), 4},         // 1 rack × 2 servers × 2 CPUs
	}
	for _, tc := range cases {
		if got := tc.sys.NumMachines(); got != tc.want {
			t.Errorf("%s: NumMachines = %d, want %d", tc.sys.Name, got, tc.want)
		}
	}
}

func TestSuperPodPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SuperPodSystem(0,0) did not panic")
		}
	}()
	SuperPodSystem(0, 0)
}
