package netsim

import (
	"fmt"
	"math"

	"p2/internal/cost"
	"p2/internal/lower"
)

// ConcurrentSpec pairs a program with its own payload size and algorithm
// (zero values inherit the simulator's).
type ConcurrentSpec struct {
	// Program is the lowered program this lane executes.
	Program *lower.Program
	// Bytes is the per-device payload; <= 0 or NaN inherits the simulator's.
	Bytes float64
	// Algo is the lane's algorithm, honored only with HasAlgo set —
	// the explicit-set marker exists because the zero Algorithm value is
	// a valid algorithm (Ring), so a zero Algo alone cannot distinguish
	// "inherit" from "pin Ring".
	Algo    cost.Algorithm
	HasAlgo bool
	// StepAlgos, when non-nil, assigns a per-step algorithm (one entry
	// per step of Program), overriding Algo step by step; uniform
	// assignments are canonicalized to the fixed algorithm they name.
	StepAlgos []cost.Algorithm
}

// normalized resolves the spec's inherit-from-simulator defaults into
// explicit values: a non-positive or NaN payload becomes the simulator's
// Bytes, an unset algorithm the simulator's Algo, and a uniform per-step
// assignment collapses to the fixed algorithm it names. It is the single place spec
// defaulting happens, so every spelling of the same assignment — and
// MeasureSteps, which is a lone default spec — measures the same float.
func (c ConcurrentSpec) normalized(s *Simulator) ConcurrentSpec {
	if !(c.Bytes > 0) {
		c.Bytes = s.Bytes
	}
	if !c.HasAlgo {
		c.Algo, c.HasAlgo = s.Algo, true
	}
	if c.StepAlgos != nil && len(c.StepAlgos) != len(c.Program.Steps) {
		panic(fmt.Sprintf("netsim: %d step algorithms for %d steps",
			len(c.StepAlgos), len(c.Program.Steps)))
	}
	if a, ok := cost.UniformAlgo(c.StepAlgos); ok {
		c.Algo, c.StepAlgos = a, nil
	}
	return c
}

// MeasureConcurrent emulates several lowered programs executing at the
// same time on the shared network — e.g. a tensor-parallel activation
// all-reduce overlapping a data-parallel gradient all-reduce, as happens
// when they run on different streams. Each program's steps remain
// sequential internally (steps are barriers within a program), but
// transfers of different programs contend for links concurrently.
//
// It returns the per-program completion times. With a single program it
// is Measure(p).
func (s *Simulator) MeasureConcurrent(programs []*lower.Program) []float64 {
	specs := make([]ConcurrentSpec, len(programs))
	for i, p := range programs {
		specs[i] = ConcurrentSpec{Program: p}
	}
	return s.MeasureConcurrentSpecs(specs)
}

// lane is one program's progress through the event loop. Every lane keeps
// its own step-local clock: now restarts at 0 when a step starts, and the
// lane's elapsed time is total = Σ (LaunchOverhead + the step's final now)
// — the same float operations in the same order whether the lane runs
// alone or beside others, which is what makes the one-lane case
// (MeasureSteps) the multi-lane loop bit for bit rather than up to an ULP:
// on one global clock, (now+latency)−now rounds differently at a large now.
type lane struct {
	steps     []lower.Step
	stepAlgos []cost.Algorithm // per fused step; nil = algo throughout
	algo      cost.Algorithm
	bytes     float64
	noise     *noiseStream

	step   int        // current step, or the next one while between steps
	groups []groupRun // the current step's groups
	live   int        // unfinished groups of the current step; 0 = between steps
	wait   float64    // launch overhead left to wait out before the next step
	now    float64    // step-local clock
	total  float64    // elapsed time up to the current step's start; the finish time once done
}

// done reports whether the lane has finished its last step.
func (ln *lane) done() bool { return ln.step == len(ln.steps) }

// MeasureConcurrentSpecs is MeasureConcurrent with per-program payloads
// and algorithms. It is the emulator's one event loop: each iteration
// launches the steps and rounds that are due, splits every link's
// bandwidth equally among the transfers crossing it, advances every lane
// by the time to the next event, and retires the transfers that finished.
func (s *Simulator) MeasureConcurrentSpecs(specs []ConcurrentSpec) []float64 {
	if len(specs) == 0 {
		return nil
	}
	opts := s.Opts.effective()
	sys := s.Sys
	net := newNetwork(sys, opts)
	var path []int // latency scratch

	lanes := make([]*lane, len(specs))
	unfinished := 0
	for li, spec := range specs {
		spec = spec.normalized(s)
		p := spec.Program
		if p.NumDevices != sys.NumDevices() {
			panic(fmt.Sprintf("netsim: program has %d devices, system %d",
				p.NumDevices, sys.NumDevices()))
		}
		steps, stepAlgos := p.Steps, spec.StepAlgos
		if !opts.DisableFusion {
			steps, stepAlgos = fuseStepsAlgos(steps, stepAlgos)
		}
		lanes[li] = &lane{
			steps:     steps,
			stepAlgos: stepAlgos,
			algo:      spec.Algo,
			bytes:     spec.Bytes,
			wait:      opts.LaunchOverhead,
			noise: newNoise(opts.Seed ^
				fingerprintAlgos(fingerprint(sys.Name, int(spec.Algo), p.Key()), stepAlgos) ^
				uint64(li)*0x9e3779b97f4a7c15),
		}
		if !lanes[li].done() {
			unfinished++
		}
	}

	var active []*transfer
	stalled := 0

	// startStep opens the lane's next step: the launch overhead it waited
	// out joins the lane's total as the constant (not as the sum of the dts
	// that consumed it) and the step-local clock restarts.
	startStep := func(ln *lane) {
		st := ln.steps[ln.step]
		algo := ln.algo
		if ln.stepAlgos != nil {
			algo = ln.stepAlgos[ln.step]
		}
		ln.total += opts.LaunchOverhead
		ln.now = 0
		perDevice := st.FracIn() * ln.bytes
		ln.groups = ln.groups[:0]
		for _, g := range st.Groups {
			rounds := scheduleRounds(sys, st.Op, g, perDevice, algo)
			lat := 0.0
			for _, rd := range rounds {
				for _, tr := range rd {
					path = net.route(tr.src, tr.dst, path[:0])
					if l := net.latency(path); l > lat {
						lat = l
					}
				}
			}
			ln.groups = append(ln.groups, groupRun{rounds: rounds, latency: lat})
		}
		ln.live = len(ln.groups)
	}
	startRound := func(li, gi int) {
		ln := lanes[li]
		g := &ln.groups[gi]
		round := g.rounds[g.next]
		g.next++
		// One backing array holds the round's paths: a route loads at most
		// two uplinks per level plus a cross-domain slot.
		paths := make([]int, 0, len(round)*(2*sys.NumLevels()+1))
		for ti, spec := range round {
			b := spec.bytes
			if !opts.DisableNoise {
				b *= 1 + opts.NoiseFrac*ln.noise.next(ln.step, gi, g.next, ti)
			}
			start := len(paths)
			paths = net.route(spec.src, spec.dst, paths)
			tr := &transfer{
				remaining: b,
				paths:     paths[start:len(paths):len(paths)],
				lane:      li,
				group:     gi,
				src:       spec.src,
				dst:       spec.dst,
				bytes:     b,
				started:   ln.now,
			}
			for _, ri := range tr.paths {
				//p2:nan-ok link rates are validated finite by (*System).init; exact 0 is the down-link sentinel
				if net.links[ri].bandwidth == 0 {
					tr.stalled = true
				}
			}
			if tr.stalled {
				stalled++
			} else {
				for _, ri := range tr.paths {
					net.links[ri].active++
				}
			}
			active = append(active, tr)
			g.inflight++
		}
	}
	// abandon marks every unfinished lane as never completing.
	abandon := func() {
		for _, ln := range lanes {
			if !ln.done() {
				ln.total = math.Inf(1)
			}
		}
	}

	for iter := 0; unfinished > 0; iter++ {
		// Cancellation poll, amortized over 64 iterations: a cancelled
		// measurement marks every unfinished lane with the +Inf
		// never-completes sentinel (callers observing Ctx.Err() discard it).
		if iter&63 == 0 && s.cancelled() {
			abandon()
			break
		}
		// Launch the lane steps and group rounds whose time has come.
		for li, ln := range lanes {
			if ln.done() {
				continue
			}
			if ln.live == 0 {
				// Between steps: waiting out the launch overhead.
				if ln.wait > 1e-15 {
					continue
				}
				startStep(ln)
			}
			for gi := range ln.groups {
				g := &ln.groups[gi]
				if g.pending() && g.startAt <= ln.now+1e-15 {
					startRound(li, gi)
				}
			}
		}
		// Assign equal-share rates. Stalled transfers hold rate 0 and do
		// not count toward any link's active share (they move no bytes).
		for _, tr := range active {
			if tr.stalled {
				tr.rate = 0
				continue
			}
			rate := math.Inf(1)
			for _, ri := range tr.paths {
				r := net.links[ri].bandwidth / float64(net.links[ri].active)
				if r < rate {
					rate = r
				}
			}
			tr.rate = rate
		}
		// Time of the next completion, pending round start or step launch.
		// Non-stalled transfers always have rate > 0: base bandwidths are
		// validated positive and a transfer counts toward its own links'
		// shares.
		dt := math.Inf(1)
		for _, tr := range active {
			if tr.stalled {
				continue
			}
			if d := tr.remaining / tr.rate; d < dt {
				dt = d
			}
		}
		for _, ln := range lanes {
			if ln.done() {
				continue
			}
			if ln.live == 0 {
				if ln.wait < dt {
					dt = ln.wait
				}
				continue
			}
			for gi := range ln.groups {
				g := &ln.groups[gi]
				if d := g.startAt - ln.now; g.pending() && d < dt {
					dt = d
				}
			}
		}
		if math.IsInf(dt, 1) {
			if stalled > 0 {
				// All remaining progress is behind a down link: the lanes
				// still running never finish.
				abandon()
				break
			}
			panic("netsim: deadlock with no progress")
		}
		//p2:nan-ok dt starts at +Inf and only ever takes a value that compared < it, which NaN never does; the clamp absorbs rounding
		if dt < 0 {
			dt = 0
		}
		for _, ln := range lanes {
			if ln.done() {
				continue
			}
			if ln.live == 0 {
				ln.wait -= dt
			} else {
				ln.now += dt
			}
		}
		// Drain and retire completed transfers.
		kept := active[:0]
		for _, tr := range active {
			tr.remaining -= tr.rate * dt
			if tr.remaining > 1e-9*tr.rate+1e-12 {
				kept = append(kept, tr)
				continue
			}
			ln := lanes[tr.lane]
			if s.Recorder != nil {
				s.Recorder(Event{
					Step:  ln.step,
					Group: tr.group,
					Op:    ln.steps[ln.step].Op,
					Src:   tr.src,
					Dst:   tr.dst,
					Bytes: tr.bytes,
					Start: ln.total + tr.started,
					End:   ln.total + ln.now,
				})
			}
			for _, ri := range tr.paths {
				net.links[ri].active--
			}
			g := &ln.groups[tr.group]
			g.inflight--
			if g.inflight > 0 {
				continue
			}
			if g.next < len(g.rounds) {
				g.startAt = ln.now + g.latency
				continue
			}
			ln.live--
			if ln.live > 0 {
				continue
			}
			// Step finished: bank its step-local time.
			ln.total += ln.now
			ln.step++
			ln.wait = opts.LaunchOverhead
			if ln.done() {
				unfinished--
			}
		}
		active = kept
	}

	out := make([]float64, len(lanes))
	for li, ln := range lanes {
		out[li] = ln.total
	}
	return out
}
