package main

import (
	"fmt"
	"time"

	"p2"
)

// Library workloads: p2.Plan and p2.PlanJoint called from one goroutine.

// libResult is the output of one library op.
type libResult struct {
	plan  *p2.PlanResult
	joint *p2.JointPlan
}

func (r libResult) ranking() ranking {
	if r.joint != nil {
		return rankingOfJoint(r.joint)
	}
	return rankingOfPlan(r.plan)
}

type libEnv struct {
	w       *workload
	shapes  []shape
	sys     []*p2.System
	reqs    []p2.Request
	goldens map[string]golden
	ops     *opList
	// warm holds the warm-up round's raw outputs by shape; they are
	// checked after set-up, outside setup_s.
	warm []libResult
}

func setupLibrary(w *workload, cfg config) (*libEnv, error) {
	e := &libEnv{w: w, shapes: w.active(cfg.smoke)}
	var err error
	if e.sys, e.reqs, err = resolveAll(e.shapes); err != nil {
		return nil, err
	}
	all, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	e.goldens = all[w.name]
	if cfg.inject == "golden" {
		g := e.goldens[e.shapes[0].name()]
		g.Head = append([]entry(nil), g.Head...)
		g.Head[0].Pred = "0"
		e.goldens[e.shapes[0].name()] = g
	}
	e.ops = newOpList(cfg.seed, len(e.shapes))
	e.warm = make([]libResult, len(e.shapes))
	for _, si := range e.ops.round() {
		if e.warm[si], err = e.run(si); err != nil {
			return nil, fmt.Errorf("shape %q: %w", e.shapes[si].name(), err)
		}
	}
	return e, nil
}

func (e *libEnv) shapeList() []shape { return e.shapes }
func (e *libEnv) close()             {}

// run is the timed op: one call into the public root API, as a compiler
// would make it (fresh planner, default parallelism).
func (e *libEnv) run(si int) (libResult, error) {
	if s := &e.shapes[si]; s.joint != nil {
		jp, err := p2.PlanJoint(e.sys[si], s.Axes, s.joint)
		return libResult{joint: jp}, err
	}
	res, err := p2.Plan(e.sys[si], e.reqs[si])
	return libResult{plan: res}, err
}

// checkGolden compares an op's output with the shape's committed golden.
func (e *libEnv) checkGolden(si int, r ranking) string {
	g, ok := e.goldens[e.shapes[si].name()]
	if !ok {
		return "no golden (regenerate with -write-golden)"
	}
	return g.check(r.entries)
}

func (e *libEnv) checkWarmup(rep *report) (deterministic, error) {
	var preds, speedups []float64
	for si, res := range e.warm {
		name := e.shapes[si].name()
		r := res.ranking()
		if d := e.checkGolden(si, r); d != "" {
			rep.fail("%s: %s", name, d)
		}
		preds = append(preds, r.bestPred*1e3)
		// The rank-1 program must compute the reduction on concrete data.
		best := []*p2.Strategy{r.best}
		reduce := [][]int{e.reqs[si].ReduceAxes}
		if res.joint != nil {
			best, reduce = res.joint.Best().PerReduction, nil
			for _, red := range e.shapes[si].joint {
				reduce = append(reduce, red.ReduceAxes)
			}
		}
		for i, s := range best {
			if err := verifyLowered(s.Lowered(), s.Matrix, reduce[i]); err != nil {
				rep.fail("%s: rank-1 program fails on concrete data: %v", name, err)
			}
		}
		if res.joint != nil {
			continue // speedup covers single-reduction shapes only
		}
		base, err := baselinePred(e.sys[si], res.plan.Request, r.best.Matrix)
		if err != nil {
			return deterministic{}, fmt.Errorf("%s: AllReduce baseline: %w", name, err)
		}
		speedups = append(speedups, base/r.bestPred)
	}
	e.warm = nil
	return deterministic{bestPredMs: geomean(preds), speedup: geomean(speedups)}, nil
}

func (e *libEnv) timed(rep *report, cfg config, cal *calibrator) ([]sample, []float64, uint64) {
	var (
		samples []sample
		slices  []float64
		busy    time.Duration
		alloc   uint64
	)
	for busy.Seconds() < cfg.seconds || len(samples) < cfg.minOps(e.w) {
		var round time.Duration
		for _, si := range e.ops.round() {
			a0 := heapAllocBytes()
			t0 := time.Now()
			res, err := e.run(si)
			d := time.Since(t0)
			if cfg.inject == "slow" {
				time.Sleep(d / 2)
				d = time.Since(t0)
			}
			alloc += heapAllocBytes() - a0
			round += d
			// Checked outside the timed interval; only op time counts as
			// wall time, so the check costs the run no throughput.
			s := sample{shape: si, slice: len(slices), ms: ms(d), ok: true}
			if err != nil {
				rep.fail("%s: %v", e.shapes[si].name(), err)
				s.ok = false
			} else if diff := e.checkGolden(si, res.ranking()); diff != "" {
				rep.fail("%s: %s", e.shapes[si].name(), diff)
				s.ok = false
			}
			samples = append(samples, s)
		}
		slices = append(slices, round.Seconds())
		if busy/sliceLen != (busy+round)/sliceLen {
			cal.sample()
		}
		busy += round
	}
	return samples, slices, alloc
}

func (e *libEnv) checkAfter(*report) {}
