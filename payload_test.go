// Regression tests for the default-payload convention: the paper's
// 2^29 × machines float32 per GPU, where "machines" is the product of all
// non-leaf level counts — NOT the root level count, which undercounted
// payloads on three-level systems (SuperPod(2,4) got the 2-node payload).
package p2_test

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"p2"
	"p2/internal/cost"
	"p2/internal/synth"
)

func planBytes(t *testing.T, sys *p2.System, axes []int) float64 {
	t.Helper()
	res, err := p2.Plan(sys, p2.Request{Axes: axes, ReduceAxes: []int{0}, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Request.Bytes
}

func TestDefaultPayloadPerPreset(t *testing.T) {
	const chunk = float64(1<<29) * 4 // 2^29 float32 per machine
	cases := []struct {
		name     string
		sys      *p2.System
		axes     []int
		machines int
	}{
		{"fig2a", p2.Fig2aSystem(), []int{4, 4}, 4},               // 1 rack × 2 servers × 2 CPUs
		{"a100-4", p2.A100System(4), []int{4, 16}, 4},             // 4 nodes
		{"v100-2", p2.V100System(2), []int{2, 8}, 2},              // 2 nodes
		{"superpod-2x4", p2.SuperPodSystem(2, 4), []int{8, 8}, 8}, // 2 pods × 4 nodes
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := chunk * float64(tc.machines)
			if got := cost.DefaultPayload(tc.sys); got != want {
				t.Errorf("cost.DefaultPayload = %v, want %v (%d machines)", got, want, tc.machines)
			}
			if got := planBytes(t, tc.sys, tc.axes); got != want {
				t.Errorf("Plan default Bytes = %v, want %v", got, want)
			}
		})
	}
}

// TestSuperPodPayloadLocked is the acceptance-criterion lock: the 2×4
// SuperPod has 8 machines, so its default payload is 2^29 × 8 × 4 bytes —
// not the 2-pod payload the root-level-count bug produced.
func TestSuperPodPayloadLocked(t *testing.T) {
	want := float64(1<<29) * 8 * 4
	if got := planBytes(t, p2.SuperPodSystem(2, 4), []int{8, 8}); got != want {
		t.Fatalf("SuperPod(2,4) default payload = %v, want 2^29 × 8 machines × 4 = %v", got, want)
	}
	serial, err := p2.PlanSerial(p2.SuperPodSystem(2, 4), p2.Request{Axes: []int{8, 8}, ReduceAxes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Request.Bytes != want {
		t.Errorf("PlanSerial default payload = %v, want %v", serial.Request.Bytes, want)
	}
}

// TestRequestEchoAppliesDefaults locks the PlanResult.Request contract:
// every defaulted field is echoed resolved, not as its raw zero.
func TestRequestEchoAppliesDefaults(t *testing.T) {
	res, err := p2.Plan(p2.Fig2aSystem(), p2.Request{Axes: []int{4, 4}, ReduceAxes: []int{0}, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := res.Request
	if req.Bytes != cost.DefaultPayload(p2.Fig2aSystem()) {
		t.Errorf("Bytes echoed %v, want default payload", req.Bytes)
	}
	if req.MaxProgramSize != synth.DefaultMaxSize {
		t.Errorf("MaxProgramSize echoed %d, want %d", req.MaxProgramSize, synth.DefaultMaxSize)
	}
	if req.Parallelism != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism echoed %d, want GOMAXPROCS %d", req.Parallelism, runtime.GOMAXPROCS(0))
	}
	if len(req.Algos) != 1 || req.Algos[0] != p2.Ring {
		t.Errorf("Algos echoed %v, want [Ring]", req.Algos)
	}

	// A single-entry Algos set pins Algo; explicit values echo unchanged.
	res, err = p2.Plan(p2.Fig2aSystem(), p2.Request{Axes: []int{4, 4}, ReduceAxes: []int{0},
		Algos: []p2.Algorithm{p2.Tree}, MaxProgramSize: 3, Parallelism: 2, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	req = res.Request
	if req.Algo != p2.Tree {
		t.Errorf("Algo echoed %v, want Tree (pinned by single-entry Algos)", req.Algo)
	}
	if req.MaxProgramSize != 3 || req.Parallelism != 2 {
		t.Errorf("explicit values not echoed: MaxProgramSize=%d Parallelism=%d", req.MaxProgramSize, req.Parallelism)
	}
}

// TestNonPositivePayloadTakesDefault: NaN fails every ordered comparison,
// so a `bytes <= 0` guard let it through — Plan then ranked on NaN traffic
// (which the model's max-scan skips, leaving the bare latency term) and
// echoed Request.Bytes = NaN. NaN, zero and negatives must all plan at the
// paper's default payload, in Plan and PlanJoint alike.
func TestNonPositivePayloadTakesDefault(t *testing.T) {
	sys := p2.A100System(2)
	def := cost.DefaultPayload(sys)
	want, err := p2.Plan(sys, p2.Request{Axes: []int{4, 8}, ReduceAxes: []int{0}, Bytes: def})
	if err != nil {
		t.Fatal(err)
	}
	red := p2.Reduction{ReduceAxes: []int{0}, Bytes: def}
	wantJoint, err := p2.PlanJoint(sys, []int{4, 8}, []p2.Reduction{red})
	if err != nil {
		t.Fatal(err)
	}
	for _, bytes := range []float64{math.NaN(), 0, -1} {
		got, err := p2.Plan(sys, p2.Request{Axes: []int{4, 8}, ReduceAxes: []int{0}, Bytes: bytes})
		if err != nil {
			t.Fatal(err)
		}
		if got.Request.Bytes != def {
			t.Errorf("Bytes %v: Plan echoed payload %v, want default %v", bytes, got.Request.Bytes, def)
		}
		if g, w := got.Best().Predicted, want.Best().Predicted; g != w {
			t.Errorf("Bytes %v: Plan best predicted %v, want %v (default payload)", bytes, g, w)
		}
		red.Bytes = bytes
		gotJoint, err := p2.PlanJoint(sys, []int{4, 8}, []p2.Reduction{red})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := gotJoint.Choices[0].Total, wantJoint.Choices[0].Total; g != w {
			t.Errorf("Bytes %v: PlanJoint best total %v, want %v (default payload)", bytes, g, w)
		}
	}
}

// TestInfinitePayloadRefused: a +Inf payload or occurrence count cannot be
// planned — every candidate would predict +Inf, which the wire reports as
// a route that never completes — so Plan, PlanJoint and Request.Resolve
// refuse it with an error naming the field instead of ranking on it.
func TestInfinitePayloadRefused(t *testing.T) {
	sys, axes := p2.A100System(2), []int{4, 8}
	inf := math.Inf(1)
	for name, call := range map[string]func() error{
		"Plan Bytes": func() error {
			_, err := p2.Plan(sys, p2.Request{Axes: axes, ReduceAxes: []int{0}, Bytes: inf})
			return err
		},
		"Resolve Bytes": func() error {
			_, err := p2.Request{Axes: axes, ReduceAxes: []int{0}, Bytes: inf}.Resolve(sys)
			return err
		},
		"PlanJoint Bytes": func() error {
			_, err := p2.PlanJoint(sys, axes, []p2.Reduction{{ReduceAxes: []int{0}, Bytes: inf}})
			return err
		},
		"PlanJoint Count": func() error {
			_, err := p2.PlanJoint(sys, axes, []p2.Reduction{{ReduceAxes: []int{0}}, {ReduceAxes: []int{1}, Count: inf}})
			return err
		},
	} {
		field := strings.Fields(name)[1]
		if err := call(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s = +Inf: err = %v, want a refusal naming %s", name, err, field)
		}
	}
}
