// Package trace converts the network emulator's transfer events into the
// Chrome trace-event JSON format (chrome://tracing, Perfetto), so that a
// reduction program's execution can be inspected visually: one track per
// device, one duration slice per transfer, annotated with the collective,
// step, group and byte volume.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"p2/internal/netsim"
	"p2/internal/topology"
)

// chromeEvent is one entry of the Chrome trace-event format.
type chromeEvent struct {
	Name     string            `json:"name"`
	Cat      string            `json:"cat"`
	Phase    string            `json:"ph"`
	TsMicros float64           `json:"ts"`
	DurUS    float64           `json:"dur"`
	PID      int               `json:"pid"`
	TID      int               `json:"tid"`
	Args     map[string]string `json:"args,omitempty"`
}

type chromeMeta struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid,omitempty"`
	Args  map[string]any `json:"args"`
}

// WriteChrome renders emulator events (netsim.Simulator.Recorder's, or
// p2.Strategy.Trace's) as a Chrome trace. Devices become threads of a
// single process named after the system; transfers are duration events on
// the *source* device's track.
func WriteChrome(w io.Writer, sys *topology.System, events []netsim.Event) error {
	events = slices.Clone(events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })

	var out []any
	out = append(out, chromeMeta{
		Name:  "process_name",
		Phase: "M",
		PID:   1,
		Args:  map[string]any{"name": sys.Name},
	})
	seen := map[int]bool{}
	for _, ev := range events {
		for _, dev := range []int{ev.Src, ev.Dst} {
			if !seen[dev] {
				seen[dev] = true
				out = append(out, chromeMeta{
					Name:  "thread_name",
					Phase: "M",
					PID:   1,
					TID:   dev + 1,
					Args:  map[string]any{"name": "dev " + sys.DeviceName(dev)},
				})
			}
		}
	}
	for _, ev := range events {
		out = append(out, chromeEvent{
			Name:     fmt.Sprintf("%v %s→%s", ev.Op, sys.DeviceName(ev.Src), sys.DeviceName(ev.Dst)),
			Cat:      "transfer",
			Phase:    "X",
			TsMicros: ev.Start * 1e6,
			DurUS:    (ev.End - ev.Start) * 1e6,
			PID:      1,
			TID:      ev.Src + 1,
			Args: map[string]string{
				"step":  fmt.Sprintf("%d", ev.Step),
				"group": fmt.Sprintf("%d", ev.Group),
				"bytes": fmt.Sprintf("%.0f", ev.Bytes),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}

// Summary aggregates emulator events per (step, op): transfer count,
// total bytes, and the step's busy interval. Rows are ordered by step.
type Summary struct {
	Step      int
	Op        string
	Transfers int
	Bytes     float64
	Start     float64
	End       float64
}

// Summarize builds per-step summaries from emulator events.
func Summarize(events []netsim.Event) []Summary {
	byStep := map[int]*Summary{}
	var steps []int
	for _, ev := range events {
		s, ok := byStep[ev.Step]
		if !ok {
			s = &Summary{Step: ev.Step, Op: ev.Op.String(), Start: ev.Start, End: ev.End}
			byStep[ev.Step] = s
			steps = append(steps, ev.Step)
		}
		s.Transfers++
		s.Bytes += ev.Bytes
		if ev.Start < s.Start {
			s.Start = ev.Start
		}
		if ev.End > s.End {
			s.End = ev.End
		}
	}
	sort.Ints(steps)
	out := make([]Summary, 0, len(steps))
	for _, st := range steps {
		out = append(out, *byStep[st])
	}
	return out
}
