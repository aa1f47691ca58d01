// Package topology models hierarchical accelerator systems as described in
// §2 of the P² paper: a hardware hierarchy where each level has a name and a
// cardinality, plus a set of interconnects with bandwidth and latency
// characteristics.
//
// Levels are ordered from root-most (index 0) to leaf-most (index n). A
// device is a leaf; its physical address is the mixed-radix tuple of per
// level coordinates. Communication between two devices enters the network
// at the leaf, climbs the uplinks to the lowest common level, crosses that
// level's switch, and descends on the other side. The level at which two
// device addresses first differ therefore determines which interconnects a
// transfer traverses, which is exactly the structure the paper's cost model
// (§5) exploits.
package topology

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"p2/internal/factor"
)

// Level is one tier of the hardware hierarchy: Count entities of this level
// exist under each entity of the level above.
type Level struct {
	Name  string
	Count int
}

// Link describes the uplink connecting an entity at some level to the
// switch of its parent level (for the root-most level, to the data-center
// network).
type Link struct {
	// Name identifies the interconnect technology, e.g. "NVSwitch",
	// "NVLinkRing", "NIC".
	Name string
	// Bandwidth is the effective uni-directional bandwidth in bytes/second.
	Bandwidth float64
	// Latency is the per-message latency in seconds.
	Latency float64
}

// CrossDomainModel captures intra-node structure that the analytic cost
// model deliberately ignores (a modelling simplification the paper calls
// out for V100, Fig. 9b): devices within one node are split into
// PCIe/shared-memory domains, and transfers crossing domains are throttled.
type CrossDomainModel struct {
	// DomainsPerNode is how many equally sized domains each node's devices
	// split into. Must divide the leaf-level count.
	DomainsPerNode int
	// Bandwidth is the effective bandwidth in bytes/second of the
	// cross-domain path (e.g. PCIe + shared memory staging).
	Bandwidth float64
	// Latency is the additional per-message latency in seconds.
	Latency float64
}

// System is a hierarchical accelerator system.
type System struct {
	// Name identifies the configuration, e.g. "a100-4node".
	Name string
	// Levels from root-most to leaf-most. The total device count is the
	// product of all level counts.
	Levels []Level
	// Uplinks[l] is the link from a level-l entity up toward level l-1
	// (or to the data-center network when l == 0). len(Uplinks) ==
	// len(Levels).
	Uplinks []Link
	// CrossDomain optionally refines the leaf level for the event-level
	// emulator. The analytic model ignores it.
	CrossDomain *CrossDomainModel
	// Overrides degrades individual entity uplinks, making the fabric
	// heterogeneous; see LinkOverride and WithOverrides. Empty for the
	// pristine uniform-link systems of §5.
	Overrides []LinkOverride

	radix *factor.Radix
	// recip[l] is ⌈2⁶⁴/Weight(l)⌉, or 0 when the weight is 1; see quo.
	recip []uint64
	// entOffsets[l] is the cumulative entity count of levels above l; see
	// EntityOffsets.
	entOffsets []int
	// effBW/effLat are dense per-entity effective link characteristics
	// (indexed entOffsets[l]+e) and minLat the per-level minimum effective
	// latency; all nil unless some override actually degrades a link, so
	// pristine systems keep the uniform fast paths.
	effBW, effLat, minLat []float64
}

// New constructs and validates a System.
func New(name string, levels []Level, uplinks []Link) (*System, error) {
	s := &System{
		Name:    name,
		Levels:  append([]Level(nil), levels...),
		Uplinks: append([]Link(nil), uplinks...),
	}
	if err := s.init(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNew is New panicking on error; intended for preset construction.
func MustNew(name string, levels []Level, uplinks []Link) *System {
	return must(New(name, levels, uplinks))
}

func must(s *System, err error) *System {
	if err != nil {
		panic(err)
	}
	return s
}

func (s *System) init() error {
	if len(s.Levels) == 0 {
		return fmt.Errorf("topology: system %q has no levels", s.Name)
	}
	if len(s.Uplinks) != len(s.Levels) {
		return fmt.Errorf("topology: system %q has %d levels but %d uplinks",
			s.Name, len(s.Levels), len(s.Uplinks))
	}
	sizes := make([]int, len(s.Levels))
	for i, l := range s.Levels {
		if l.Count <= 0 {
			return fmt.Errorf("topology: level %q has non-positive count %d", l.Name, l.Count)
		}
		if l.Name == "" {
			return fmt.Errorf("topology: level %d has empty name", i)
		}
		sizes[i] = l.Count
	}
	for i, u := range s.Uplinks {
		if err := validLink(u.Bandwidth, u.Latency); err != nil {
			return fmt.Errorf("topology: uplink %d (%s): %w", i, u.Name, err)
		}
	}
	if cd := s.CrossDomain; cd != nil {
		leaf := s.Levels[len(s.Levels)-1].Count
		if cd.DomainsPerNode <= 0 || leaf%cd.DomainsPerNode != 0 {
			return fmt.Errorf("topology: cross-domain count %d does not divide leaf count %d",
				cd.DomainsPerNode, leaf)
		}
		if err := validLink(cd.Bandwidth, cd.Latency); err != nil {
			return fmt.Errorf("topology: cross-domain link: %w", err)
		}
	}
	s.radix = factor.NewRadix(sizes)
	s.entOffsets = make([]int, len(s.Levels)+1)
	s.recip = make([]uint64, len(s.Levels))
	prod := 1
	for l, lv := range s.Levels {
		// Checked before multiplying, so the device count cannot overflow.
		if prod > math.MaxUint32/lv.Count {
			return fmt.Errorf("topology: system %q has 2^32 or more devices; at most 2^32-1 are supported", s.Name)
		}
		prod *= lv.Count
		s.entOffsets[l+1] = s.entOffsets[l] + prod
		if w := s.radix.Weight(l); w > 1 {
			s.recip[l] = math.MaxUint64/uint64(w) + 1
		}
	}
	return s.initOverrides()
}

// validLink rejects link characteristics that would silently corrupt the
// cost model: a non-positive, NaN or +Inf bandwidth yields ±Inf/NaN step
// times, and a negative or non-finite latency likewise. Note NaN fails
// every ordered comparison, so the conditions are written to catch it
// explicitly rather than relying on `<= 0`.
func validLink(bandwidth, latency float64) error {
	if !(bandwidth > 0) || math.IsInf(bandwidth, 1) {
		return fmt.Errorf("bandwidth %v must be positive and finite", bandwidth)
	}
	if !(latency >= 0) || math.IsInf(latency, 1) {
		return fmt.Errorf("latency %v must be non-negative and finite", latency)
	}
	return nil
}

// EntityOffsets returns cumulative entity counts per level:
// EntityOffsets()[l] is the number of entities strictly above level l, so
// a dense per-entity array over all levels has EntityOffsets()[NumLevels()]
// slots and entity e of level l lives at EntityOffsets()[l]+e — the index
// Route returns for that entity's uplink. The slice is shared and must not
// be mutated.
func (s *System) EntityOffsets() []int { return s.entOffsets }

// WithCrossDomain returns a copy of s carrying the given cross-domain model.
func (s *System) WithCrossDomain(cd CrossDomainModel) *System {
	c := *s
	c.CrossDomain = &cd
	if err := c.init(); err != nil {
		panic(err)
	}
	return &c
}

// NumLevels returns the number of hierarchy levels.
func (s *System) NumLevels() int { return len(s.Levels) }

// NumDevices returns the total number of leaf devices.
func (s *System) NumDevices() int { return s.radix.Total() }

// NumMachines returns the number of machines in the system: the product of
// all non-leaf level counts (every entity that owns devices, e.g. 8 for
// SuperPodSystem(2, 4): 2 pods × 4 nodes). For the paper's two-level
// systems this equals the root level count.
func (s *System) NumMachines() int {
	n := 1
	for _, l := range s.Levels[:len(s.Levels)-1] {
		n *= l.Count
	}
	return n
}

// Hierarchy returns the level cardinalities [h0 ... hn].
func (s *System) Hierarchy() []int { return s.radix.Sizes() }

// Coords decodes a device id into its per-level coordinates.
func (s *System) Coords(dev int) []int { return s.radix.Decode(dev) }

// DivergenceLevel returns the root-most level at which the addresses of a
// and b differ, or -1 if a == b: the first level whose entity ids (address
// prefixes, see EntityID) differ. Smaller return values mean communication
// crosses a higher (typically slower) interconnect.
func (s *System) DivergenceLevel(a, b int) int {
	if a == b {
		return -1
	}
	for l := range s.Levels {
		if s.quo(a, l) != s.quo(b, l) {
			return l
		}
	}
	return -1
}

// GroupSpanLevel returns the root-most level at which any pair of devices
// in the group differs: the level of the slowest interconnect the group's
// collective traffic must cross. It returns -1 for groups of size < 2.
func (s *System) GroupSpanLevel(group []int) int {
	span := len(s.Levels)
	found := false
	for i := 1; i < len(group); i++ {
		if d := s.DivergenceLevel(group[0], group[i]); d >= 0 {
			found = true
			if d < span {
				span = d
			}
		}
	}
	if !found {
		return -1
	}
	return span
}

// EntityID identifies the level-l entity (subtree) containing device dev:
// the mixed-radix prefix of its address truncated at level l, encoded as a
// single integer unique among level-l entities. Dropping the digits below
// level l is one quotient by their positional weight.
func (s *System) EntityID(dev, l int) int { return s.quo(dev, l) }

// quo is dev / Weight(l) as the high word of dev × ⌈2⁶⁴/w⌉ (Lemire, Kaser
// & Kurz 2019): exact for every dev < 2³² when w ≤ 2³², which New's
// device-count limit guarantees.
func (s *System) quo(dev, l int) int {
	r := s.recip[l]
	if r == 0 {
		return dev
	}
	q, _ := bits.Mul64(uint64(dev), r)
	return int(q)
}

// Route is the one router: it appends to path the dense uplink indices
// (EntityOffsets()[l] + EntityID(x, l)) that a transfer between devices a
// and b loads — for every level l from their divergence level down to the
// leaf, a's level-l entity then b's — and returns the extended slice. It
// appends nothing when a == b; otherwise the divergence level is
// NumLevels() − appended/2. The quotients of a and b first differ at the
// divergence level and differ at every level below it, so one pass over
// the levels routes without computing that level first.
//
//p2:zeroalloc
func (s *System) Route(a, b int, path []int) []int {
	for l, off := range s.entOffsets[:len(s.Levels)] {
		if qa, qb := s.quo(a, l), s.quo(b, l); qa != qb {
			path = append(path, off+qa, off+qb) //p2:alloc-ok appends into the caller's buffer; a reused buffer stops growing after the longest route
		}
	}
	return path
}

// EntitiesAt returns the number of level-l entities in the whole system.
func (s *System) EntitiesAt(l int) int {
	n := 1
	for i := 0; i <= l; i++ {
		n *= s.Levels[i].Count
	}
	return n
}

// DeviceName renders a short human-readable device name. For systems whose
// second-to-leaf level has <= 26 entities it uses the paper's Fig. 2a
// convention (letter = parent entity, digit = leaf index), otherwise a
// slash-separated coordinate path.
func (s *System) DeviceName(dev int) string {
	coords := s.Coords(dev)
	n := len(coords)
	if n >= 2 {
		parents := s.EntitiesAt(n - 2)
		if parents <= 26 {
			return fmt.Sprintf("%c%d", 'A'+s.EntityID(dev, n-2), coords[n-1])
		}
	}
	parts := make([]string, n)
	for i, c := range coords {
		parts[i] = fmt.Sprintf("%s%d", strings.ToLower(s.Levels[i].Name[:1]), c)
	}
	return strings.Join(parts, "/")
}

// String renders the hierarchy in the paper's bracket form, e.g.
// "[(rack, 1), (server, 2), (CPU, 2), (GPU, 4)]".
func (s *System) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, l := range s.Levels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%s, %d)", l.Name, l.Count)
	}
	b.WriteByte(']')
	return b.String()
}
