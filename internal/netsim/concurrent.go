package netsim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"p2/internal/cost"
	"p2/internal/lower"
	"p2/internal/topology"
)

// ConcurrentSpec is one lane of MeasureConcurrentSpecs: a program with its
// own payload size and algorithm.
type ConcurrentSpec struct {
	// Program is the lowered program this lane executes.
	Program *lower.Program
	// Bytes is the per-device payload and Algo the lane's algorithm.
	Bytes float64
	Algo  cost.Algorithm
	// StepAlgos, when non-nil, assigns a per-step algorithm (one entry
	// per step of Program), overriding Algo step by step; uniform
	// assignments are canonicalized to the fixed algorithm they name.
	StepAlgos []cost.Algorithm
}

// normalized collapses a uniform per-step assignment to the fixed algorithm
// it names, so every spelling of the same assignment measures the same
// float. It panics on an assignment of the wrong length.
func (c ConcurrentSpec) normalized() ConcurrentSpec {
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
		specs[i] = ConcurrentSpec{Program: p, Bytes: s.Bytes, Algo: s.Algo}
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
	steps     []lower.Step     // the program's steps after fusion
	stepAlgos []cost.Algorithm // per fused step; empty = algo throughout
	algo      cost.Algorithm
	bytes     float64
	noise     noiseStream

	step   int            // current step, or the next one while between steps
	groups []groupRun     // the current step's groups
	rounds []span         // the current step's rounds, group after group
	specs  []transferSpec // the current step's distinct transfers
	paths  []int          // the specs' routes, each spec's paths[lo:hi]
	live   int            // unfinished groups of the current step; 0 = between steps
	idle   int            // groups between rounds (pending); 0 = no round to start
	wait   float64        // launch overhead left to wait out before the next step
	now    float64        // step-local clock
	total  float64        // elapsed time up to the current step's start; the finish time once done
}

// done reports whether the lane has finished its last step.
func (ln *lane) done() bool { return ln.step == len(ln.steps) }

// scratch is one measurement's working state. It is pooled, so a warm
// measurement allocates nothing per step, group, round or transfer, and it
// holds no Program between measurements. The Simulator itself stays a
// read-only value that any number of goroutines share. Routes live with
// their lane's specs for the whole step, so the live set is the only thing
// an event compacts.
type scratch struct {
	net    network
	lanes  []lane
	active []transfer // live transfers, in start order
	key    []byte     // noise fingerprint bytes
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool and resets it for n lanes on
// sys: a cancelled or stalled run is put back with transfers in flight.
func getScratch(sys *topology.System, opts Options, n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.net.reset(sys, opts)
	sc.active, sc.lanes = sc.active[:0], slices.Grow(sc.lanes[:0], n)[:n]
	for i := range sc.lanes {
		ln := &sc.lanes[i]
		*ln = lane{steps: ln.steps[:0], stepAlgos: ln.stepAlgos[:0], groups: ln.groups[:0],
			rounds: ln.rounds[:0], specs: ln.specs[:0], paths: ln.paths[:0], wait: opts.LaunchOverhead}
	}
	return sc
}

// MeasureConcurrentSpecs is MeasureConcurrent with per-program payloads
// and algorithms: the specs, not the simulator's Algo and Bytes, say what
// each lane runs. It is the emulator's one event loop: each iteration
// launches the steps and rounds that are due, splits every link's
// bandwidth equally among the transfers crossing it, advances every lane
// by the time to the next event, and retires the transfers that finished.
func (s *Simulator) MeasureConcurrentSpecs(specs []ConcurrentSpec) []float64 {
	if len(specs) == 0 {
		return nil
	}
	opts := s.Opts.effective()
	sys := s.Sys
	sc := getScratch(sys, opts, len(specs))
	net, lanes := &sc.net, sc.lanes

	unfinished := 0
	for li, spec := range specs {
		spec = spec.normalized()
		p := spec.Program
		if p.NumDevices != sys.NumDevices() {
			panic(fmt.Sprintf("netsim: program has %d devices, system %d",
				p.NumDevices, sys.NumDevices()))
		}
		ln := &lanes[li]
		if opts.DisableFusion {
			ln.steps, ln.stepAlgos = append(ln.steps, p.Steps...), append(ln.stepAlgos, spec.StepAlgos...)
		} else {
			ln.steps, ln.stepAlgos = fuseStepsAlgos(ln.steps, ln.stepAlgos, p.Steps, spec.StepAlgos)
		}
		ln.algo, ln.bytes = spec.Algo, spec.Bytes
		// The jitter seed is FNV-1a over the system name, the algorithm,
		// the program key and, for a mixed assignment, each step's
		// algorithm + 1; with none, fixed-algorithm runs keep their streams.
		sc.key = p.AppendKey(append(append(sc.key[:0], sys.Name...), byte(spec.Algo)))
		for _, a := range ln.stepAlgos {
			sc.key = append(sc.key, byte(a+1))
		}
		h := uint64(14695981039346656037)
		for _, c := range sc.key {
			h = (h ^ uint64(c)) * 1099511628211
		}
		ln.noise.state = (opts.Seed ^ h ^ uint64(li)*0x9e3779b97f4a7c15) | 1
		if !ln.done() {
			unfinished++
		}
	}

	stalled := 0

	// startStep opens the lane's next step: the launch overhead it waited
	// out joins the lane's total as the constant (not as the sum of the dts
	// that consumed it) and the step-local clock restarts. It routes each
	// distinct transfer once, for the group's latency and the spec's down
	// flag, and keeps the route for every round that repeats the transfer.
	startStep := func(ln *lane) {
		st := ln.steps[ln.step]
		algo := ln.algo
		if len(ln.stepAlgos) > 0 {
			algo = ln.stepAlgos[ln.step]
		}
		ln.total += opts.LaunchOverhead
		ln.now = 0
		perDevice := st.FracIn() * ln.bytes
		ln.groups, ln.rounds, ln.specs, ln.paths = ln.groups[:0], ln.rounds[:0], ln.specs[:0], ln.paths[:0]
		for _, g := range st.Groups {
			lo, first := len(ln.rounds), len(ln.specs)
			ln.specs, ln.rounds = scheduleRounds(sys, st.Op, g, perDevice, algo, ln.specs, ln.rounds)
			// The group's latency is the max over its rounds' transfers;
			// each distinct transfer is in specs once, and max is exact.
			lat := 0.0
			for k := first; k < len(ln.specs); k++ {
				sp := &ln.specs[k]
				sp.lo = int32(len(ln.paths))
				ln.paths = net.route(sp.src, sp.dst, ln.paths)
				sp.hi, sp.group = int32(len(ln.paths)), int32(len(ln.groups))
				path := ln.paths[sp.lo:sp.hi]
				if l := net.latency(path); l > lat {
					lat = l
				}
				for _, ri := range path {
					//p2:nan-ok link rates are validated finite by (*System).init; exact 0 is the down-link sentinel
					if net.links[ri].bandwidth == 0 {
						sp.down = true
					}
				}
			}
			ln.groups = append(ln.groups, groupRun{lo: lo, hi: len(ln.rounds), latency: lat})
		}
		ln.live, ln.idle = len(ln.groups), len(ln.groups)
	}
	startRound := func(li, gi int) {
		ln := &lanes[li]
		g := &ln.groups[gi]
		round := ln.rounds[g.lo+g.next]
		g.next++
		ln.idle--
		for k := round.lo; k < round.hi; k++ {
			sp := &ln.specs[k]
			b := sp.bytes
			if !opts.DisableNoise {
				b *= 1 + opts.NoiseFrac*ln.noise.next(ln.step, gi, g.next, k-round.lo)
			}
			g.inflight++
			if sp.down {
				// Stalled: it never completes and moves no bytes, so it
				// stays out of the live set and loads no link, and its
				// group — hence the step and the lane — never finishes,
				// making the measured time +Inf.
				stalled++
				continue
			}
			sig := net.load(ln.paths[sp.lo:sp.hi], 1)
			sc.active = append(sc.active, transfer{remaining: b, bytes: b, started: ln.now, sig: sig,
				lane: int32(li), spec: int32(k), lo: sp.lo, hi: sp.hi})
		}
	}
	// abandon marks every unfinished lane as never completing.
	abandon := func() {
		for li := range lanes {
			if ln := &lanes[li]; !ln.done() {
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
		// Launch the lane steps and group rounds whose time has come, and
		// take the time to the next pending round start or step launch.
		dt := math.Inf(1)
		for li := range lanes {
			ln := &lanes[li]
			if ln.done() {
				continue
			}
			if ln.live == 0 && ln.wait <= 1e-15 {
				startStep(ln)
			}
			if ln.live == 0 {
				// Between steps: waiting out the launch overhead.
				if ln.wait < dt {
					dt = ln.wait
				}
				continue
			}
			if ln.idle == 0 {
				continue // every group has a round in flight
			}
			for gi := range ln.groups {
				g := &ln.groups[gi]
				if g.pending() && g.startAt <= ln.now+1e-15 {
					startRound(li, gi)
				}
				if d := g.startAt - ln.now; g.pending() && d < dt {
					dt = d
				}
			}
		}
		// Equal-share rates and the time to the next completion, in one
		// pass. Every live transfer has rate > 0: base bandwidths are
		// validated positive, a transfer behind a down link is never live,
		// and a transfer counts toward its own links' shares. Only a route
		// that may cross a link whose share changed since the last pass is
		// rescanned; any other keeps its rate, the min of the same shares.
		// A transfer started since then is always rescanned: its own load
		// marked its links.
		active, changed := sc.active, net.changed
		net.changed = 0
		for i := range active {
			tr := &active[i]
			if tr.sig&changed != 0 {
				rate := math.Inf(1)
				for _, ri := range lanes[tr.lane].paths[tr.lo:tr.hi] {
					if r := net.links[ri].share; r < rate {
						rate = r
					}
				}
				tr.rate = rate
			}
			if d := tr.remaining / tr.rate; d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			if stalled > 0 || len(active) > 0 {
				// All remaining progress is behind a down link, or would
				// take forever (an infinite volume, a vanishing rate): the
				// lanes still running never finish.
				abandon()
				break
			}
			panic("netsim: deadlock with no progress")
		}
		//p2:nan-ok dt starts at +Inf and only ever takes a value that compared < it, which NaN never does; the clamp absorbs rounding
		if dt < 0 {
			dt = 0
		}
		for li := range lanes {
			ln := &lanes[li]
			if ln.done() {
				continue
			}
			if ln.live == 0 {
				ln.wait -= dt
			} else {
				ln.now += dt
			}
		}
		// Drain and retire completed transfers. Compaction is stable, so
		// the live set stays in start order.
		kept := 0
		for i := range active {
			tr := &active[i]
			tr.remaining -= tr.rate * dt
			if tr.remaining > 1e-9*tr.rate+1e-12 {
				if kept != i {
					active[kept] = *tr
				}
				kept++
				continue
			}
			ln := &lanes[tr.lane]
			sp := &ln.specs[tr.spec]
			if s.Recorder != nil {
				s.Recorder(Event{
					Step:  ln.step,
					Group: int(sp.group),
					Op:    ln.steps[ln.step].Op,
					Src:   sp.src,
					Dst:   sp.dst,
					Bytes: tr.bytes,
					Start: ln.total + tr.started,
					End:   ln.total + ln.now,
				})
			}
			net.load(ln.paths[tr.lo:tr.hi], -1)
			g := &ln.groups[sp.group]
			g.inflight--
			if g.inflight > 0 {
				continue
			}
			if g.more() {
				g.startAt = ln.now + g.latency
				ln.idle++
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
		sc.active = active[:kept]
	}

	out := make([]float64, len(lanes))
	for li := range lanes {
		out[li] = lanes[li].total
		clear(lanes[li].steps) // the pool holds no Program
	}
	scratchPool.Put(sc)
	return out
}
