package topology

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// withFaults returns s degraded by a fault spec in ParseFaults's grammar.
func withFaults(t *testing.T, s *System, spec string) *System {
	t.Helper()
	ovs, err := ParseFaults(s, spec)
	if err == nil {
		s, err = s.WithOverrides(ovs...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWithOverridesEffectiveLinks(t *testing.T) {
	s := A100System(2) // [node 2][gpu 16]
	// GPU entity 5's NVSwitch uplink at a tenth, then half lost (the two
	// compose: x0.1 x0.5); node 1's NIC at 4x latency; node 0's NIC out of
	// service; a pristine no-op on GPU entity 2.
	d := withFaults(t, s, "gpu:5:bw/10; node:1:lat*4; gpu:5:loss=0.5; node:0:down; gpu:2:bw*1")
	if d.effBW == nil {
		t.Fatal("no effective-link arrays after degrading overrides")
	}
	if got, want := d.LinkBandwidth(1, 5), A100SwitchBandwidth*0.1*0.5; math.Abs(got-want) > 1e-3 {
		t.Errorf("LinkBandwidth(1,5) = %v, want %v", got, want)
	}
	if got := d.LinkBandwidth(1, 4); got != A100SwitchBandwidth {
		t.Errorf("LinkBandwidth(1,4) = %v, want base %v", got, A100SwitchBandwidth)
	}
	if got := d.LinkLatency(0, 1); got != 4*NICLatency {
		t.Errorf("LinkLatency(0,1) = %v, want %v", got, 4*NICLatency)
	}
	if got := d.LinkBandwidth(0, 0); got != 0 {
		t.Errorf("down link bandwidth = %v, want 0", got)
	}
	// MinLinkLatency: level 0 has latencies {base, 4x base} -> base.
	if got := d.MinLinkLatency(0); got != NICLatency {
		t.Errorf("MinLinkLatency(0) = %v, want %v", got, NICLatency)
	}
	// The original system is untouched.
	if s.effBW != nil || s.LinkBandwidth(0, 0) != NICBandwidth {
		t.Error("WithOverrides mutated the receiver")
	}
}

func TestPristineOverridesKeepFastPath(t *testing.T) {
	s := SuperPodSystem(2, 2)
	d := withFaults(t, s, "0:1:bw*1;2:7:lat*1")
	if d.effBW != nil {
		t.Error("all-pristine override set built effective-link arrays")
	}
	for l := 0; l < d.NumLevels(); l++ {
		for e := 0; e < d.EntitiesAt(l); e++ {
			if d.LinkBandwidth(l, e) != s.Uplinks[l].Bandwidth || d.LinkLatency(l, e) != s.Uplinks[l].Latency {
				t.Fatalf("pristine override changed link (%d,%d)", l, e)
			}
		}
		if d.MinLinkLatency(l) != s.Uplinks[l].Latency {
			t.Fatalf("pristine override changed MinLinkLatency(%d)", l)
		}
	}
}

func TestOverrideValidation(t *testing.T) {
	s := A100System(2)
	bad := []LinkOverride{
		{Level: -1, Entity: 0, BandwidthScale: 1, LatencyScale: 1},
		{Level: 2, Entity: 0, BandwidthScale: 1, LatencyScale: 1},
		{Level: 1, Entity: 32, BandwidthScale: 1, LatencyScale: 1},
		{Level: 0, Entity: -1, BandwidthScale: 1, LatencyScale: 1},
		{Level: 0, Entity: 0, BandwidthScale: -0.5, LatencyScale: 1},
		{Level: 0, Entity: 0, BandwidthScale: math.NaN(), LatencyScale: 1},
		{Level: 0, Entity: 0, BandwidthScale: math.Inf(1), LatencyScale: 1},
		{Level: 0, Entity: 0, BandwidthScale: 1, LatencyScale: -1},
		{Level: 0, Entity: 0, BandwidthScale: 1, LatencyScale: math.NaN()},
		{Level: 0, Entity: 0, BandwidthScale: 1, LatencyScale: 1, LossFrac: 1},
		{Level: 0, Entity: 0, BandwidthScale: 1, LatencyScale: 1, LossFrac: -0.1},
		{Level: 0, Entity: 0, BandwidthScale: 1, LatencyScale: 1, LossFrac: math.NaN()},
	}
	for i, o := range bad {
		if _, err := s.WithOverrides(o); err == nil {
			t.Errorf("override %d (%+v) accepted, want error", i, o)
		}
	}
}

// TestCloneCopiesOverrides: a system re-derived from its own overrides
// keeps them, in a slice of its own.
func TestCloneCopiesOverrides(t *testing.T) {
	s := withFaults(t, A100System(2), "1:3:bw/10")
	c, err := s.WithOverrides(s.Overrides...)
	if err != nil {
		t.Fatal(err)
	}
	if c.effBW == nil || c.LinkBandwidth(1, 3) != s.LinkBandwidth(1, 3) {
		t.Fatal("copy dropped overrides")
	}
	c.Overrides[0].BandwidthScale = 1
	if s.Overrides[0].BandwidthScale == 1 {
		t.Error("copy shares the override slice")
	}
}

func TestParseFaults(t *testing.T) {
	sp := SuperPodSystem(3, 4) // [pod 3][node 4][gpu 8]
	cases := []struct {
		spec string
		want []LinkOverride
	}{
		{"gpu:2/3/5:bw/10", []LinkOverride{{Level: 2, Entity: (2*4+3)*8 + 5, BandwidthScale: 0.1, LatencyScale: 1}}},
		{"node:0/1:down", []LinkOverride{{Level: 1, Entity: 1, BandwidthScale: 0, LatencyScale: 1}}},
		{"NVSwitch:7:lat*4", []LinkOverride{{Level: 2, Entity: 7, BandwidthScale: 1, LatencyScale: 4}}},
		{"1:5:bw*0.5", []LinkOverride{{Level: 1, Entity: 5, BandwidthScale: 0.5, LatencyScale: 1}}},
		{"pod:1:loss=0.25", []LinkOverride{{Level: 0, Entity: 1, BandwidthScale: 1, LatencyScale: 1, LossFrac: 0.25}}},
		{"spine:*:bw/2", []LinkOverride{
			{Level: 0, Entity: 0, BandwidthScale: 0.5, LatencyScale: 1},
			{Level: 0, Entity: 1, BandwidthScale: 0.5, LatencyScale: 1},
			{Level: 0, Entity: 2, BandwidthScale: 0.5, LatencyScale: 1},
		}},
		{"gpu:0/0/0:bw/10,lat*2; node:1/2:down", []LinkOverride{
			{Level: 2, Entity: 0, BandwidthScale: 0.1, LatencyScale: 2},
			{Level: 1, Entity: 1*4 + 2, BandwidthScale: 0, LatencyScale: 1},
		}},
	}
	for _, tc := range cases {
		got, err := ParseFaults(sp, tc.spec)
		if err != nil {
			t.Errorf("ParseFaults(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFaults(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseFaultsErrors(t *testing.T) {
	sp := SuperPodSystem(3, 4)
	// wantTok is the offending token the error must name, so a failure in
	// a long multi-clause spec is findable; empty when there is no token
	// to report (the empty spec).
	cases := []struct {
		spec    string
		wantSub string
		wantTok string
	}{
		{"", "empty fault spec", ""},
		{"gpu:0/0/0", "malformed fault", "gpu:0/0/0"},
		{"rack:0:down", "unknown fault level", `"rack"`},
		{"gpu:0/0:down", "needs 3", `"0/0"`}, // too few coords for the gpu level
		{"gpu:0/0/9:down", "out of range", `"0/0/9"`},
		{"gpu:999:down", "out of range", `"999"`},
		{"gpu:0/0/0:warp*9", "unknown effect", `"warp*9"`},
		{"gpu:0/0/0:bw/0", "malformed effect", `"bw/0"`},
		{"gpu:0/0/0:loss=1.5", "loss fraction", `"gpu:0/0/0:loss=1.5"`},
		{"gpu:0/0/0:bw*-2", "bandwidth scale", `"gpu:0/0/0:bw*-2"`},
		// The failing clause must be named even when it is not the first.
		{"node:0/1:down; spine:*:lat*-3", "latency scale", `"spine:*:lat*-3"`},
	}
	for _, tc := range cases {
		_, err := ParseFaults(sp, tc.spec)
		if err == nil {
			t.Errorf("ParseFaults(%q) succeeded, want error containing %q", tc.spec, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseFaults(%q) error = %q, want substring %q", tc.spec, err, tc.wantSub)
		}
		if tc.wantTok != "" && !strings.Contains(err.Error(), tc.wantTok) {
			t.Errorf("ParseFaults(%q) error = %q, does not name the offending token %s",
				tc.spec, err, tc.wantTok)
		}
	}
}

func TestValidationRejectsNonFiniteLinks(t *testing.T) {
	mk := func(bw, lat float64) error {
		_, err := New("t", []Level{{Name: "n", Count: 2}}, []Link{{Name: "l", Bandwidth: bw, Latency: lat}})
		return err
	}
	for _, tc := range []struct {
		bw, lat float64
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{0, 0},
		{-1, 0},
		{1e9, math.NaN()},
		{1e9, math.Inf(1)},
		{1e9, -1},
	} {
		if mk(tc.bw, tc.lat) == nil {
			t.Errorf("New accepted bandwidth %v latency %v", tc.bw, tc.lat)
		}
	}
	if err := mk(1e9, 0); err != nil {
		t.Errorf("New rejected a valid link: %v", err)
	}
}

func TestValidationRejectsBadCrossDomain(t *testing.T) {
	base := func() *System {
		return MustNew("t",
			[]Level{{Name: "n", Count: 2}, {Name: "g", Count: 4}},
			[]Link{{Name: "NIC", Bandwidth: 1e9}, {Name: "NVL", Bandwidth: 1e10}})
	}
	for _, cd := range []CrossDomainModel{
		{DomainsPerNode: 2, Bandwidth: 0},
		{DomainsPerNode: 2, Bandwidth: math.NaN()},
		{DomainsPerNode: 2, Bandwidth: math.Inf(1)},
		{DomainsPerNode: 2, Bandwidth: 1e9, Latency: math.NaN()},
		{DomainsPerNode: 2, Bandwidth: 1e9, Latency: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithCrossDomain(%+v) did not panic", cd)
				}
			}()
			base().WithCrossDomain(cd)
		}()
	}
}
