package topology

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// LinkOverride degrades (or, rarely, upgrades) the uplink of one specific
// entity, turning the uniform per-level links of §5's "Assumptions" into a
// heterogeneous fabric: a straggling NIC, a flaky optic running at a
// fraction of nominal bandwidth, a fully down link. Overrides compose —
// several overrides naming the same (Level, Entity) multiply together —
// and the zero-degradation override (scales 1, loss 0) is exactly the
// pristine link: every predicted float is bit-identical to a system
// carrying no overrides at all.
type LinkOverride struct {
	// Level selects which level's uplink is overridden and Entity the
	// entity at that level (as numbered by System.EntityID), i.e. the
	// specific physical link.
	Level  int
	Entity int
	// BandwidthScale multiplies the base bandwidth: 0.1 models a link
	// degraded 10×, 0 a fully down link (transfers across it never
	// complete; predictions become +Inf). Negative, NaN or +Inf scales are
	// rejected by validation.
	BandwidthScale float64
	// LatencyScale multiplies the base latency (a congested or
	// long-detour path). Must be finite and non-negative.
	LatencyScale float64
	// LossFrac is the fraction of traffic lost and retransmitted on the
	// link, in [0, 1): effective bandwidth is scaled by (1 − LossFrac),
	// the goodput under retransmission. Model a total loss as a down link
	// (BandwidthScale 0), not LossFrac 1.
	LossFrac float64
}

// Pristine reports whether the override leaves the link unchanged.
func (o LinkOverride) Pristine() bool {
	//p2:nan-ok NaN fields are rejected by validate before any Pristine-gated fast path is taken
	return o.BandwidthScale == 1 && o.LatencyScale == 1 && o.LossFrac == 0
}

// validate checks the override against the system it is attached to.
func (o LinkOverride) validate(s *System) error {
	if o.Level < 0 || o.Level >= len(s.Levels) {
		return fmt.Errorf("topology: override level %d out of range [0, %d)", o.Level, len(s.Levels))
	}
	if n := s.EntitiesAt(o.Level); o.Entity < 0 || o.Entity >= n {
		return fmt.Errorf("topology: override entity %d out of range [0, %d) at level %q",
			o.Entity, n, s.Levels[o.Level].Name)
	}
	if !(o.BandwidthScale >= 0) || math.IsInf(o.BandwidthScale, 0) {
		return fmt.Errorf("topology: override bandwidth scale %v must be finite and >= 0", o.BandwidthScale)
	}
	if !(o.LatencyScale >= 0) || math.IsInf(o.LatencyScale, 0) {
		return fmt.Errorf("topology: override latency scale %v must be finite and >= 0", o.LatencyScale)
	}
	if !(o.LossFrac >= 0 && o.LossFrac < 1) {
		return fmt.Errorf("topology: override loss fraction %v must be in [0, 1) (model total loss as a down link)", o.LossFrac)
	}
	return nil
}

// WithOverrides returns a copy of s carrying the given per-link overrides
// (replacing any it already had), or an error when an override names a
// link outside the system or carries non-finite scales. Overrides naming
// the same link compose multiplicatively.
func (s *System) WithOverrides(ovs ...LinkOverride) (*System, error) {
	c := *s
	c.Levels = append([]Level(nil), s.Levels...)
	c.Uplinks = append([]Link(nil), s.Uplinks...)
	if s.CrossDomain != nil {
		cd := *s.CrossDomain
		c.CrossDomain = &cd
	}
	c.Overrides = append([]LinkOverride(nil), ovs...)
	if err := c.init(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LinkBandwidth returns the effective bandwidth in bytes/second of the
// uplink of entity e at level l: the base per-level bandwidth times the
// composed BandwidthScale × (1 − LossFrac) of every override naming that
// link. 0 means the link is down. Without overrides this is exactly
// Uplinks[l].Bandwidth.
func (s *System) LinkBandwidth(l, e int) float64 {
	if s.effBW == nil {
		return s.Uplinks[l].Bandwidth
	}
	return s.effBW[s.entOffsets[l]+e]
}

// LinkLatency returns the effective per-message latency in seconds of the
// uplink of entity e at level l. Without overrides this is exactly
// Uplinks[l].Latency.
func (s *System) LinkLatency(l, e int) float64 {
	if s.effBW == nil {
		return s.Uplinks[l].Latency
	}
	return s.effLat[s.entOffsets[l]+e]
}

// MinLinkLatency returns the minimum effective uplink latency over all
// entities of level l — the admissible per-level latency for lower bounds
// (overrides can only be proven to slow a specific link; a bound must
// assume traffic crossed the fastest one). Without overrides every entity
// shares Uplinks[l].Latency.
func (s *System) MinLinkLatency(l int) float64 {
	if s.effBW == nil {
		return s.Uplinks[l].Latency
	}
	return s.minLat[l]
}

// initOverrides validates the override set and precomputes the dense
// effective-link arrays. All-pristine sets (including the empty set) leave
// the arrays nil so every consumer keeps the uniform-link fast path and
// bit-identical arithmetic.
func (s *System) initOverrides() error {
	s.effBW, s.effLat, s.minLat = nil, nil, nil
	degraded := false
	for _, o := range s.Overrides {
		if err := o.validate(s); err != nil {
			return err
		}
		if !o.Pristine() {
			degraded = true
		}
	}
	if !degraded {
		return nil
	}
	L := len(s.Levels)
	total := s.entOffsets[L]
	s.effBW = make([]float64, total)
	s.effLat = make([]float64, total)
	for l := 0; l < L; l++ {
		for i := s.entOffsets[l]; i < s.entOffsets[l+1]; i++ {
			s.effBW[i] = s.Uplinks[l].Bandwidth
			s.effLat[i] = s.Uplinks[l].Latency
		}
	}
	for _, o := range s.Overrides {
		i := s.entOffsets[o.Level] + o.Entity
		s.effBW[i] *= o.BandwidthScale * (1 - o.LossFrac)
		s.effLat[i] *= o.LatencyScale
	}
	s.minLat = make([]float64, L)
	for l := 0; l < L; l++ {
		min := s.effLat[s.entOffsets[l]]
		for i := s.entOffsets[l] + 1; i < s.entOffsets[l+1]; i++ {
			if s.effLat[i] < min {
				min = s.effLat[i]
			}
		}
		s.minLat[l] = min
	}
	return nil
}

// ParseFaults parses a fault-spec string into link overrides against a
// concrete system. The grammar, one fault per ';'-separated clause:
//
//	FAULT  := LEVEL ":" ENTITY ":" EFFECT {"," EFFECT}
//	LEVEL  := level name | uplink name | level index      (case-insensitive)
//	ENTITY := coords root→level, "/"-separated | entity id | "*" (every entity)
//	EFFECT := "down" | "bw" ("*"|"/") FLOAT | "lat" ("*"|"/") FLOAT | "loss=" FLOAT
//
// Examples on superpod:3x4 ([pod 3] [node 4] [gpu 8]):
//
//	"gpu:2/3/5:bw/10"        the NVSwitch uplink of GPU 5 on pod 2, node 3, at a tenth of nominal
//	"node:0/1:down"          the IB rail of pod 0's node 1 is out
//	"nvswitch:7:lat*4"       GPU entity 7 (id form), addressed by uplink name
//	"spine:*:bw/2,loss=0.01" every pod uplink halved and 1% lossy
func ParseFaults(sys *System, spec string) ([]LinkOverride, error) {
	var out []LinkOverride
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		ovs, err := parseFaultClause(sys, clause)
		if err != nil {
			return nil, err
		}
		out = append(out, ovs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("topology: empty fault spec %q", spec)
	}
	return out, nil
}

func parseFaultClause(sys *System, clause string) ([]LinkOverride, error) {
	parts := strings.SplitN(clause, ":", 3)
	if len(parts) != 3 {
		return nil, fmt.Errorf("topology: malformed fault %q (want LEVEL:ENTITY:EFFECT[,EFFECT...])", clause)
	}
	level, err := parseFaultLevel(sys, parts[0])
	if err != nil {
		return nil, err
	}
	entities, err := parseFaultEntities(sys, level, parts[1])
	if err != nil {
		return nil, err
	}
	base := LinkOverride{BandwidthScale: 1, LatencyScale: 1}
	for _, eff := range strings.Split(parts[2], ",") {
		if err := applyFaultEffect(&base, strings.TrimSpace(eff)); err != nil {
			return nil, fmt.Errorf("topology: fault %q: %w", clause, err)
		}
	}
	out := make([]LinkOverride, 0, len(entities))
	for _, e := range entities {
		o := base
		o.Level, o.Entity = level, e
		if err := o.validate(sys); err != nil {
			// Validation speaks in override fields; name the clause that
			// produced them so the user can find the offending token in a
			// multi-clause spec.
			return nil, fmt.Errorf("topology: fault %q: %s",
				clause, strings.TrimPrefix(err.Error(), "topology: "))
		}
		out = append(out, o)
	}
	return out, nil
}

// parseFaultLevel resolves a level by name, by its uplink's name, or by
// numeric index.
func parseFaultLevel(sys *System, s string) (int, error) {
	for l, lv := range sys.Levels {
		if strings.EqualFold(s, lv.Name) || strings.EqualFold(s, sys.Uplinks[l].Name) {
			return l, nil
		}
	}
	if l, err := strconv.Atoi(s); err == nil && l >= 0 && l < len(sys.Levels) {
		return l, nil
	}
	var names []string
	for l, lv := range sys.Levels {
		names = append(names, fmt.Sprintf("%s/%s", lv.Name, sys.Uplinks[l].Name))
	}
	return 0, fmt.Errorf("topology: unknown fault level %q (want one of %s, or a level index)",
		s, strings.Join(names, ", "))
}

// parseFaultEntities resolves the entity field: "*" for every entity at
// the level, a "/"-separated coordinate path from the root, or a bare
// entity id.
func parseFaultEntities(sys *System, level int, s string) ([]int, error) {
	n := sys.EntitiesAt(level)
	if s == "*" {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	if strings.Contains(s, "/") {
		digits := strings.Split(s, "/")
		if len(digits) != level+1 {
			return nil, fmt.Errorf("topology: entity path %q has %d coordinates, level %q needs %d",
				s, len(digits), sys.Levels[level].Name, level+1)
		}
		id := 0
		for l, d := range digits {
			v, err := strconv.Atoi(d)
			if err != nil || v < 0 || v >= sys.Levels[l].Count {
				return nil, fmt.Errorf("topology: entity path %q: coordinate %q out of range [0, %d)",
					s, d, sys.Levels[l].Count)
			}
			id = id*sys.Levels[l].Count + v
		}
		return []int{id}, nil
	}
	id, err := strconv.Atoi(s)
	if err != nil || id < 0 || id >= n {
		return nil, fmt.Errorf("topology: entity %q out of range [0, %d) at level %q (or use coords like 0/1, or *)",
			s, n, sys.Levels[level].Name)
	}
	return []int{id}, nil
}

// applyFaultEffect folds one EFFECT token into the override under
// construction.
func applyFaultEffect(o *LinkOverride, eff string) error {
	low := strings.ToLower(eff)
	switch {
	case low == "down":
		o.BandwidthScale = 0
		return nil
	case strings.HasPrefix(low, "loss="):
		v, err := strconv.ParseFloat(low[len("loss="):], 64)
		if err != nil {
			return fmt.Errorf("malformed loss effect %q", eff)
		}
		o.LossFrac = v
		return nil
	case strings.HasPrefix(low, "bw"), strings.HasPrefix(low, "lat"):
		field, rest := &o.BandwidthScale, low[2:]
		if strings.HasPrefix(low, "lat") {
			field, rest = &o.LatencyScale, low[3:]
		}
		if len(rest) < 2 || (rest[0] != '*' && rest[0] != '/') {
			return fmt.Errorf("malformed effect %q (want e.g. bw/10, bw*0.5, lat*4)", eff)
		}
		v, err := strconv.ParseFloat(rest[1:], 64)
		//p2:nan-ok a NaN factor (bw/NaN) yields a NaN scale, rejected downstream by LinkOverride.validate
		if err != nil || v == 0 && rest[0] == '/' {
			return fmt.Errorf("malformed effect %q (want e.g. bw/10, bw*0.5, lat*4)", eff)
		}
		if rest[0] == '/' {
			v = 1 / v
		}
		*field *= v
		return nil
	}
	return fmt.Errorf("unknown effect %q (want down, bw*F, bw/F, lat*F, lat/F or loss=F)", eff)
}
