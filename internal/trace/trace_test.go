package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"p2/internal/collective"
	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/netsim"
	"p2/internal/placement"
	"p2/internal/topology"
)

// record runs the RS-AR-AG program on the emulator and returns the
// transfers it recorded.
func record(t *testing.T) ([]netsim.Event, *topology.System) {
	t.Helper()
	m, err := placement.NewMatrix([]int{4, 16}, []int{4, 16}, [][]int{{2, 2}, {2, 8}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, m, []int{0}, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lower.Lower(dsl.Program{
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.ReduceScatter},
		{Slice: 1, Form: dsl.Parallel, Arg: 0, Op: collective.AllReduce},
		{Slice: 1, Form: dsl.InsideGroup, Op: collective.AllGather},
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	sys := topology.A100System(4)
	var events []netsim.Event
	sim := &netsim.Simulator{Sys: sys, Algo: cost.Ring, Bytes: 1e9,
		Opts:     netsim.Options{DisableNoise: true, LaunchOverhead: 1e-9},
		Recorder: func(ev netsim.Event) { events = append(events, ev) }}
	if got := sim.Measure(lp); got <= 0 {
		t.Fatalf("Measure = %v", got)
	}
	return events, sys
}

func TestCollectorRecordsAllSteps(t *testing.T) {
	events, _ := record(t)
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	steps := map[int]bool{}
	for _, ev := range events {
		steps[ev.Step] = true
		if ev.End < ev.Start {
			t.Errorf("event ends before it starts: %+v", ev)
		}
		if ev.Bytes <= 0 {
			t.Errorf("non-positive bytes: %+v", ev)
		}
		if ev.Src == ev.Dst {
			t.Errorf("self transfer: %+v", ev)
		}
	}
	for s := 0; s < 3; s++ {
		if !steps[s] {
			t.Errorf("no events for step %d", s)
		}
	}
}

func TestEventTimesRespectStepOrder(t *testing.T) {
	events, _ := record(t)
	// Compute per-step intervals; step i must end before step i+1 starts
	// (steps are barriers).
	sums := Summarize(events)
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	for i := 1; i < len(sums); i++ {
		if sums[i].Start < sums[i-1].End-1e-12 {
			t.Errorf("step %d starts (%v) before step %d ends (%v)",
				i, sums[i].Start, i-1, sums[i-1].End)
		}
	}
	if sums[0].Op != "ReduceScatter" || sums[1].Op != "AllReduce" || sums[2].Op != "AllGather" {
		t.Errorf("summary ops = %v %v %v", sums[0].Op, sums[1].Op, sums[2].Op)
	}
}

func TestSummaryByteAccounting(t *testing.T) {
	events, _ := record(t)
	sums := Summarize(events)
	// Step 1 (cross-node AllReduce over halves) must move fewer bytes
	// than a full AllReduce would: its per-device input is 0.5 GB.
	if sums[1].Bytes >= sums[0].Bytes*2.1 {
		t.Errorf("middle step bytes unexpectedly large: %+v", sums)
	}
	for _, s := range sums {
		if s.Transfers == 0 || s.Bytes <= 0 {
			t.Errorf("empty summary %+v", s)
		}
	}
}

func TestWriteChromeProducesValidJSON(t *testing.T) {
	events, sys := record(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sys, events); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	entries, ok := doc["traceEvents"].([]any)
	if !ok || len(entries) == 0 {
		t.Fatal("traceEvents missing")
	}
	s := buf.String()
	for _, want := range []string{`"ph":"X"`, `"ph":"M"`, "ReduceScatter", "AllGather", "a100-4node"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestEmptyCollector(t *testing.T) {
	if got := Summarize(nil); len(got) != 0 {
		t.Errorf("Summarize on empty = %v", got)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, topology.A100System(2), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("empty trace missing envelope")
	}
}
