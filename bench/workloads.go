package main

import (
	"fmt"
	"math/rand"
	"strings"

	"p2"
)

// shape is one planning request a workload repeats. Library and serve
// workloads share the daemon's wire vocabulary, so one resolver turns
// either into the root API's arguments.
type shape struct {
	planRequest
	// joint makes the op a p2.PlanJoint over these reductions instead of a
	// p2.Plan; Reduce/Algo/TopK are then unused.
	joint []p2.Reduction
	// heavy shapes cost over 50 ms an op or over 100 ms to replay, and are
	// left out of -smoke runs.
	heavy bool
}

// name identifies the shape in goldens, traces and reports.
func (s *shape) name() string {
	sys := s.System
	if s.Nodes > 0 {
		sys = fmt.Sprintf("%s:%d", s.System, s.Nodes)
	}
	if s.joint != nil {
		return fmt.Sprintf("%s %v joint", sys, s.Axes)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v r%v", sys, s.Axes, s.reduce())
	if s.Algo != "" {
		fmt.Fprintf(&b, " %s", s.Algo)
	}
	if s.TopK > 0 {
		fmt.Fprintf(&b, " k%d", s.TopK)
	}
	if s.Measure != "" {
		fmt.Fprintf(&b, " %s", s.Measure)
	}
	if s.Bytes > 0 {
		fmt.Fprintf(&b, " %gB", s.Bytes)
	}
	return b.String()
}

func (s *shape) reduce() []int {
	if len(s.Reduce) == 0 {
		return []int{0}
	}
	return s.Reduce
}

// resolve turns the wire vocabulary into root-API arguments, with the
// daemon's defaults (reduce [0], Ring, "auto" = the extended set).
func (s *shape) resolve() (*p2.System, p2.Request, error) {
	sys, err := p2.ParseSystem(s.System, s.Nodes)
	if err != nil {
		return nil, p2.Request{}, err
	}
	req := p2.Request{Axes: s.Axes, ReduceAxes: s.reduce(), Bytes: s.Bytes, TopK: s.TopK}
	switch {
	case s.Algo == "":
	case strings.EqualFold(s.Algo, "auto"):
		req.Algos = p2.ExtendedAlgorithms
	default:
		if req.Algo, err = parseAlgorithm(s.Algo); err != nil {
			return nil, p2.Request{}, err
		}
	}
	if s.Measure != "" {
		if req.Measure, err = p2.ParseMeasureMode(s.Measure); err != nil {
			return nil, p2.Request{}, err
		}
	}
	return sys, req, nil
}

// workload is one named set of shapes and how they are driven.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why    string
	shapes []shape
	// serve workloads send the shapes as POST /plan requests to the
	// in-process daemon from nproc closed-loop clients; library workloads
	// call p2.Plan from one goroutine.
	serve bool
	// hot serve requests repeat the catalog verbatim (cache reads); fresh
	// ones carry a unique payload each (cache miss and insert).
	hot bool
}

func lib(system string, nodes int, axes, reduce []int, algo string, topK int, measure string) shape {
	return shape{planRequest: planRequest{System: system, Nodes: nodes, Axes: axes, Reduce: reduce,
		Algo: algo, TopK: topK, Measure: measure}}
}

func heavy(s shape) shape { s.heavy = true; return s }

// catalogShapes are the serve workloads' shapes: the load harness's
// catalog, which is also what the daemon is warm-started with. Without
// measured, the entries that ask for emulation are left out, so that a
// workload that plans every request still makes no netsim call. Smoke runs
// keep the first four entries, the fig2a plans of a few milliseconds.
func catalogShapes(measured bool) []shape {
	var out []shape
	for i, pr := range catalog() {
		if measured || pr.Measure == "" {
			out = append(out, shape{planRequest: pr, heavy: i >= 4})
		}
	}
	return out
}

// workloads returns the five workloads in reporting order. Names are
// fixed: later issues cite them.
func workloads() []*workload {
	sp := "superpod"
	return []*workload{
		{
			name: "cold_topk",
			why:  "compiler-in-the-loop top-5 plans on a cold memo: placement, hierarchy, the plan bound and a synth miss do the work, scoring almost none; 3x4 is where pruning does not bite",
			shapes: []shape{
				lib("a100", 4, []int{8, 8}, []int{0}, "", 5, ""),
				lib("a100", 4, []int{8, 8}, []int{0}, "auto", 5, ""),
				lib("a100", 4, []int{4, 4, 4}, []int{0, 2}, "", 5, ""),
				lib("v100", 4, []int{4, 8}, []int{1}, "", 5, ""),
				heavy(lib(sp+":2x4", 0, []int{8, 8}, []int{0}, "", 5, "")),
				heavy(lib(sp+":3x4", 0, []int{12, 8}, []int{0}, "", 5, "")),
				heavy(lib(sp+":3x4", 0, []int{12, 8}, []int{0}, "auto", 5, "")),
				heavy(lib(sp+":4x8", 0, []int{16, 16}, []int{0}, "", 5, "")),
				heavy(lib(sp+":4x8", 0, []int{4, 8, 8}, []int{0}, "", 5, "")),
				heavy(lib(sp+":8x8", 0, []int{32, 16}, []int{0}, "", 5, "")),
				heavy(lib(sp+":16x32", 0, []int{64, 64}, []int{0}, "", 5, "")),
			},
		},
		{
			name: "cold_full",
			why:  "full rankings with pruning disarmed plus one joint plan: lower, cost, strategy adoption and the merge do the work, the bound none; guards the unpruned path against top-K-only speedups",
			shapes: []shape{
				heavy(lib(sp+":2x4", 0, []int{8, 8}, []int{0}, "", 0, "")),
				heavy(lib(sp+":2x4", 0, []int{8, 8}, []int{1}, "auto", 0, "")),
				heavy(lib(sp+":3x4", 0, []int{12, 8}, []int{0}, "auto", 0, "")),
				lib("a100", 4, []int{8, 8}, []int{0}, "", 0, ""),
				lib("a100", 4, []int{8, 8}, []int{0}, "auto", 0, ""),
				lib("v100", 4, []int{4, 8}, []int{1}, "", 0, ""),
				lib(sp+":2x2", 0, []int{4, 8}, []int{0}, "", 0, ""),
				lib("fig2a", 0, []int{4, 4}, []int{0}, "", 0, ""),
				heavy(shape{
					planRequest: planRequest{System: sp + ":2x4", Axes: []int{8, 8}},
					joint: []p2.Reduction{
						{ReduceAxes: []int{0}, Bytes: 1 << 30},
						{ReduceAxes: []int{1}, Bytes: 1 << 26, Count: 48},
					},
				}),
			},
		},
		{
			name: "measured",
			why:  "measured-in-the-loop plans (rank-all and rerank top-10): netsim and the plan rerank stage do the work here and nowhere else; carries the simulator-accuracy figure",
			shapes: []shape{
				lib("fig2a", 0, []int{4, 4}, []int{0}, "", 0, "rank-all"),
				lib("a100", 2, []int{4, 8}, []int{0}, "", 0, "rank-all"),
				lib("v100", 2, []int{4, 4}, []int{0}, "", 0, "rank-all"),
				lib(sp+":2x2", 0, []int{4, 8}, []int{0}, "", 0, "rank-all"),
				lib("a100", 2, []int{4, 8}, []int{0}, "", 10, "rerank"),
				lib("a100", 4, []int{8, 8}, []int{0}, "", 10, "rerank"),
				lib(sp+":2x4", 0, []int{8, 8}, []int{0}, "", 10, "rerank"),
			},
		},
		{
			name:   "serve_fresh",
			why:    "daemon slow path: every POST /plan is a strategy-cache miss and insert on a warm synthesis memo, so serve resolve/encode, lower and cost do the work and synth none",
			shapes: catalogShapes(false),
			serve:  true,
		},
		{
			name:   "serve_hot",
			why:    "daemon read path: every POST /plan is a strategy-cache hit, so per-request overhead (decode, key, encode, socket) is all of it and planning is absent",
			shapes: catalogShapes(true),
			serve:  true,
			hot:    true,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// active drops the heavy shapes in smoke runs.
func (w *workload) active(smoke bool) []shape {
	if !smoke {
		return w.shapes
	}
	var out []shape
	for _, s := range w.shapes {
		if !s.heavy {
			out = append(out, s)
		}
	}
	return out
}

// freshBytes is the unique per-device payload of the k-th fresh request of
// a run: distinct values make distinct cache keys, so every fresh request
// plans. The base matches the load harness's fresh payloads.
func freshBytes(k int) float64 { return float64(1<<26 + 512*k) }

// opList is the order ops run in: whole rounds, each a seed-shuffled
// permutation of the workload's shapes, so every shape is timed equally
// often and two commits under comparison do identical work. Round 0 is
// the untimed warm-up.
type opList struct {
	rng *rand.Rand
	n   int
}

func newOpList(seed int64, shapes int) *opList {
	return &opList{rng: rand.New(rand.NewSource(seed)), n: shapes}
}

// round returns the next round's shape indices.
func (l *opList) round() []int { return l.rng.Perm(l.n) }
