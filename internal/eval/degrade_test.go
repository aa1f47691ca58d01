package eval

import (
	"context"
	"math"
	"strings"
	"testing"

	"p2"
	"p2/internal/topology"
)

// faults parses a fault spec in topology.ParseFaults's grammar against sys.
func faults(t *testing.T, sys *topology.System, spec string) []topology.LinkOverride {
	t.Helper()
	ovs, err := topology.ParseFaults(sys, spec)
	if err != nil {
		t.Fatal(err)
	}
	return ovs
}

// TestRunDegradePlansLikePlan: the pristine half of a degrade comparison is
// the ranking p2.Plan produces for the same request — candidate for
// candidate, predictions bit for bit. A multi-axis reduction used to be
// planned uncollapsed here (12 634 candidates against Plan's 465, and a
// different winner among the tied first two).
func TestRunDegradePlansLikePlan(t *testing.T) {
	sys := topology.A100System(4)
	axes, reduce := []int{4, 2, 8}, []int{0, 2}
	r, err := RunDegradeCtx(context.Background(), DegradeConfig{
		Sys:        sys,
		Overrides:  faults(t, sys, "1:0:bw/10"),
		Axes:       axes,
		ReduceAxes: reduce,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p2.Plan(sys, p2.Request{Axes: axes, ReduceAxes: reduce})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PristineRank) != len(want.Strategies) {
		t.Fatalf("degrade ranked %d pristine candidates, Plan %d", len(r.PristineRank), len(want.Strategies))
	}
	for i, s := range want.Strategies {
		c := r.PristineRank[i]
		if c.Matrix.String() != s.Matrix.String() || c.Program.String() != s.Program.String() || c.Predicted != s.Predicted {
			t.Fatalf("rank %d: degrade has %v via %v at %v, Plan %v via %v at %v",
				i+1, c.Matrix, c.Program, c.Predicted, s.Matrix, s.Program, s.Predicted)
		}
	}
}

func TestRunDegradeRequiresOverrides(t *testing.T) {
	_, err := RunDegradeCtx(context.Background(), DegradeConfig{
		Sys:        topology.A100System(2),
		Axes:       []int{2, 16},
		ReduceAxes: []int{0},
	})
	if err == nil || !strings.Contains(err.Error(), "no link overrides") {
		t.Errorf("RunDegradeCtx without overrides: err = %v", err)
	}
}

func TestRunDegradeThrottledLinkShiftsRanking(t *testing.T) {
	sys := topology.A100System(4)
	r, err := RunDegradeCtx(context.Background(), DegradeConfig{
		Sys:        sys,
		Overrides:  faults(t, sys, "1:0:bw/10"),
		Axes:       []int{4, 16},
		ReduceAxes: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Inversions <= 0 {
		t.Error("a 10x throttled NVSwitch uplink produced zero ranking inversions")
	}
	if r.Tau <= 0 || r.Tau > 1 {
		t.Errorf("Tau = %v outside (0, 1]", r.Tau)
	}
	n := len(r.PristineRank)
	if want := n * (n - 1) / 2; r.MaxPairs != want {
		t.Errorf("MaxPairs = %d, want %d", r.MaxPairs, want)
	}
	if len(r.DegradedAt) != n || len(r.DegradedRank) != n {
		t.Fatalf("rank lengths: pristine %d, degradedAt %d, degraded %d",
			n, len(r.DegradedAt), len(r.DegradedRank))
	}
	// The degraded winner is the minimum over all candidates, so a stale
	// pristine plan can never beat it.
	if r.StaleTime < r.ReplanTime {
		t.Errorf("StaleTime %v < ReplanTime %v", r.StaleTime, r.ReplanTime)
	}
	if r.ReplanSpeedup < 1 {
		t.Errorf("ReplanSpeedup = %v < 1", r.ReplanSpeedup)
	}
	// The throttle only ever slows candidates down.
	for i, c := range r.PristineRank {
		if r.DegradedAt[i] < c.Predicted {
			t.Errorf("candidate %d sped up under a throttle: %v -> %v",
				i, c.Predicted, r.DegradedAt[i])
		}
	}
	tab := BuildDegradeTable(r, 5)
	if len(tab.Rows) != 5 {
		t.Errorf("table rows = %d, want 5", len(tab.Rows))
	}
	if got := len(tab.Header); got != 7 {
		t.Errorf("table header has %d columns", got)
	}
}

func TestRunDegradeDownLink(t *testing.T) {
	sys := topology.A100System(4)
	r, err := RunDegradeCtx(context.Background(), DegradeConfig{
		Sys:        sys,
		Overrides:  faults(t, sys, "0:2:down"),
		Axes:       []int{4, 16},
		ReduceAxes: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every candidate crossing node 2's NIC never finishes; intra-node
	// candidates don't exist for a full reduction over axis 0 spanning all
	// nodes... unless the placement keeps the reduction inside one node.
	// Either way the degraded ranking must put every finite candidate ahead
	// of every infinite one, and the table must spell the outage out.
	sawInf := false
	lastFinite := -1
	for i, c := range r.DegradedRank {
		if math.IsInf(c.Predicted, 1) {
			sawInf = true
		} else {
			if sawInf {
				t.Fatalf("finite candidate at rank %d after an infinite one", i)
			}
			lastFinite = i
		}
	}
	if !sawInf {
		t.Error("no candidate routed over the down NIC")
	}
	if lastFinite < 0 {
		// All-infinite is a legal outcome (axis spans every node); the
		// rendering must still say so.
		if !math.IsInf(r.ReplanTime, 1) {
			t.Errorf("all candidates down but ReplanTime = %v", r.ReplanTime)
		}
	}
	tab := BuildDegradeTable(r, 0)
	found := false
	for _, row := range tab.Rows {
		if strings.Contains(row[5], "down link") {
			found = true
		}
	}
	if !found {
		t.Error("table does not mark any candidate as blocked by the down link")
	}
}

// TestRunDegradeNothingCompletes: when every candidate crosses the down
// link, no re-planned winner is faster than the stale plan, so the best
// has not shifted and the speedup is 1 — not +Inf/+Inf = NaN, and not a
// shift picked by rank order among tied +Inf candidates.
func TestRunDegradeNothingCompletes(t *testing.T) {
	sys := topology.A100System(4)
	r, err := RunDegradeCtx(context.Background(), DegradeConfig{
		Sys:        sys,
		Overrides:  faults(t, sys, "gpu:0/0:down"),
		Axes:       []int{4, 16},
		ReduceAxes: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range r.DegradedRank {
		if !math.IsInf(c.Predicted, 1) {
			t.Fatalf("rank %d completes in %v s; the case needs every candidate down", i+1, c.Predicted)
		}
	}
	if r.BestShifted || r.ReplanSpeedup != 1 || !math.IsInf(r.StaleTime, 1) || !math.IsInf(r.ReplanTime, 1) {
		t.Errorf("BestShifted %v, ReplanSpeedup %v, StaleTime %v, ReplanTime %v; want false, 1, +Inf, +Inf",
			r.BestShifted, r.ReplanSpeedup, r.StaleTime, r.ReplanTime)
	}
}

func TestRunDegradePristineScalesKeepRanking(t *testing.T) {
	// All-1.0x overrides are a fault spec that degrades nothing: the two
	// rankings must agree bitwise, so the shift metrics all read zero.
	r, err := RunDegradeCtx(context.Background(), DegradeConfig{
		Sys: topology.A100System(2),
		Overrides: []topology.LinkOverride{
			{Level: 0, Entity: 1, BandwidthScale: 1, LatencyScale: 1},
		},
		Axes:       []int{2, 16},
		ReduceAxes: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Inversions != 0 || r.Tau != 0 || r.BestShifted {
		t.Errorf("pristine overrides shifted the ranking: %d inversions, tau %v, bestShifted %v",
			r.Inversions, r.Tau, r.BestShifted)
	}
	if r.ReplanSpeedup != 1 {
		t.Errorf("ReplanSpeedup = %v, want exactly 1", r.ReplanSpeedup)
	}
	for i, c := range r.PristineRank {
		if r.DegradedAt[i] != c.Predicted {
			t.Errorf("candidate %d: degraded %v != pristine %v under all-1.0x overrides",
				i, r.DegradedAt[i], c.Predicted)
		}
	}
}
