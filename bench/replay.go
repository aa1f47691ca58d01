package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"p2"
)

const (
	// replayChunk bounds how many lowered programs the replay holds at
	// once (a lowered program names every device of the system).
	replayChunk = 256
	// replayBudget bounds one shape's replay in devices × candidates
	// lowered and scored. Every shape but superpod:16x32 (4096 devices ×
	// 15 552 candidates, 49 s to walk serially) fits, and is replayed in
	// full; that one is replayed on the placements the engine ranked and
	// then in enumeration order until the budget is spent.
	replayBudget = 8 << 20
	// eventSample is how many emulations per shape also count their
	// events; a recorder slows the emulator, so those are not timed.
	eventSample = 16
)

var memStats runtime.MemStats

// mallocs is the exact count of heap objects allocated so far. It stops
// the world, so it is read outside spans.
func mallocs() uint64 {
	runtime.ReadMemStats(&memStats)
	return memStats.Mallocs
}

// layerSums accumulates what the replays of a workload's shapes measured.
type layerSums struct {
	matrices, visited, signatures, synthRuns, synthPrograms int
	lowered, steps, scored, modelled                        int
	simulated, eventPrograms, events                        int
	rankAllShapes, top10Hits                                int
	iterate, build, signature, synth                        time.Duration
	lower, scorer, model, sim                               time.Duration
	synthAllocBytes, lowerAllocs, scorerAllocs              uint64
}

// fill turns the sums into the metrics of the pipeline layers.
func (s *layerSums) fill(out map[string]float64) {
	out["placement.matrices"] = float64(s.matrices)
	out["placement.iterate_us_per_matrix"] = ratio(us(s.iterate), float64(s.matrices))
	out["hierarchy.build_us_per_matrix"] = ratio(us(s.build), float64(s.visited))
	out["hierarchy.signature_us"] = ratio(us(s.signature), float64(s.visited))
	out["hierarchy.distinct_signatures"] = float64(s.signatures)
	out["synth.ms_per_run"] = ratio(ms(s.synth), float64(s.synthRuns))
	out["synth.programs_per_run"] = ratio(float64(s.synthPrograms), float64(s.synthRuns))
	out["synth.alloc_kb_per_run"] = ratio(float64(s.synthAllocBytes)/1e3, float64(s.synthRuns))
	out["lower.us_per_program"] = ratio(us(s.lower), float64(s.lowered))
	out["lower.steps_per_program"] = ratio(float64(s.steps), float64(s.lowered))
	out["lower.allocs_per_program"] = ratio(float64(s.lowerAllocs), float64(s.lowered))
	out["cost.scorer_us_per_program"] = ratio(us(s.scorer), float64(s.scored))
	out["cost.scorer_allocs_per_program"] = ratio(float64(s.scorerAllocs), float64(s.scored))
	out["cost.model_us_per_program"] = ratio(us(s.model), float64(s.modelled))
	out["netsim.us_per_program"] = ratio(us(s.sim), float64(s.simulated))
	out["netsim.events_per_program"] = ratio(float64(s.events), float64(s.eventPrograms))
	out["netsim.top10_hit_share"] = ratio(float64(s.top10Hits), float64(s.rankAllShapes))
}

// cand is one candidate of the replay's cross-product.
type cand struct {
	mi, pi       int
	prog         p2.Program
	stepAlgos    []p2.Algorithm
	pred, meas   float64
	analyticRank int
}

// analyticLess is the order a stable sort by predicted time gives the
// serial enumeration: predicted time, then placement, then program.
func analyticLess(a, b *cand) bool {
	if a.pred != b.pred {
		return a.pred < b.pred
	}
	if a.mi != b.mi {
		return a.mi < b.mi
	}
	return a.pi < b.pi
}

// replayed is what one shape's replay arrived at.
type replayed struct {
	// ranking is the replay's ranking, cut to the request's TopK; of a
	// partial replay, every candidate it scored, in order.
	ranking []entry
	// candidates is the cross-product walked, and partial says the budget
	// ran out before every placement was.
	candidates int
	partial    bool
	// visited names the placements walked.
	visited map[string]bool
	dur     time.Duration
}

// replay walks the pipeline serially for one single-reduction shape —
// enumerate placements, build and fingerprint each hierarchy, synthesize
// once per new fingerprint, lower and score every program, emulate where
// the shape asks for it, sort — and returns the ranking it arrives at. It
// shares the layers' public functions with the engine and nothing of the
// engine's fan-out, memo, bound, heaps or merge, which is what makes
// comparing the two rankings a check. The placements in engine's ranking
// are walked first, so that a partial replay covers them.
func (t *tracer) replay(op int, sys *p2.System, req p2.Request, engine []entry, sums *layerSums) (*replayed, error) {
	root := t.begin("replay", 0, op)
	model := modelFor(sys, req)
	auto := len(req.Algos) > 1
	scorer := newScorer(sys)

	id := t.begin("placement.iterate", root, op)
	var matrices []*p2.Matrix
	err := iteratePlacements(sys, req.Axes, func(m *p2.Matrix) bool {
		matrices = append(matrices, m)
		return true
	})
	sums.iterate += t.end(id, len(matrices))
	if err != nil {
		return nil, err
	}
	sums.matrices += len(matrices)

	ranked := map[string]bool{}
	for _, e := range engine {
		ranked[e.Matrix] = true
	}
	order := make([]int, len(matrices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return ranked[matrices[order[i]].String()] && !ranked[matrices[order[j]].String()]
	})

	var (
		out    = &replayed{visited: map[string]bool{}}
		cands  []cand
		memo   = map[string][]p2.Program{}
		lps    = make([]*lowered, 0, replayChunk)
		preds  = make([]float64, replayChunk)
		algos  = make([][]p2.Algorithm, replayChunk)
		events = 0
	)
	for _, mi := range order {
		if len(cands)*sys.NumDevices() >= replayBudget {
			out.partial = true
			break
		}
		m := matrices[mi]
		out.visited[m.String()] = true
		sums.visited++
		id = t.begin("hierarchy.build", root, op)
		h, err := buildHierarchy(m, req.ReduceAxes)
		sums.build += t.end(id, 1)
		if err != nil {
			return nil, err
		}
		id = t.begin("hierarchy.signature", root, op)
		sig := h.Signature()
		sums.signature += t.end(id, 1)

		progs, seen := memo[sig]
		if !seen {
			a0 := heapAllocBytes()
			id = t.begin("synth.synthesize", root, op)
			progs = synthesize(h)
			sums.synth += t.end(id, len(progs))
			sums.synthAllocBytes += heapAllocBytes() - a0
			memo[sig] = progs
			sums.synthRuns++
			sums.synthPrograms += len(progs)
		}
		for lo := 0; lo < len(progs); lo += replayChunk {
			chunk := progs[lo:min(lo+replayChunk, len(progs))]
			lps = lps[:0]
			m0 := mallocs()
			id = t.begin("lower.lower", root, op)
			for _, p := range chunk {
				lp, err := lowerProgram(p, h)
				if err != nil {
					return nil, err
				}
				lps = append(lps, lp)
			}
			sums.lower += t.end(id, len(chunk))
			sums.lowerAllocs += mallocs() - m0
			sums.lowered += len(chunk)
			for _, lp := range lps {
				sums.steps += len(lp.Steps)
			}

			if auto {
				id = t.begin("cost.model", root, op)
				for i, lp := range lps {
					algos[i], preds[i] = model.BestStepAlgos(lp, req.Algos)
				}
				sums.model += t.end(id, len(chunk))
				sums.modelled += len(chunk)
			} else {
				m0 = mallocs()
				id = t.begin("cost.scorer", root, op)
				for i, lp := range lps {
					algos[i], preds[i] = nil, scorer.ProgramTime(model, lp)
				}
				sums.scorer += t.end(id, len(chunk))
				sums.scorerAllocs += mallocs() - m0
				sums.scored += len(chunk)
			}
			base := len(cands)
			for i, p := range chunk {
				cands = append(cands, cand{mi: mi, pi: lo + i, prog: p, stepAlgos: algos[i], pred: preds[i]})
			}
			if req.Measure == p2.MeasureRankAll {
				id = t.begin("netsim.measure", root, op)
				for i, lp := range lps {
					cands[base+i].meas = simulate(model, lp, algos[i], nil)
				}
				sums.sim += t.end(id, len(chunk))
				sums.simulated += len(chunk)
				for _, lp := range lps[:min(len(lps), max(0, eventSample-events))] {
					simulate(model, lp, nil, &sums.events)
					sums.eventPrograms++
					events++
				}
			}
		}
	}
	sums.signatures += len(memo)
	out.candidates = len(cands)

	id = t.begin("plan.sort", root, op)
	sort.Slice(cands, func(i, j int) bool { return analyticLess(&cands[i], &cands[j]) })
	t.end(id, len(cands))
	for i := range cands {
		cands[i].analyticRank = i
	}
	byMeasured := func(i, j int) bool {
		if cands[i].meas != cands[j].meas {
			return cands[i].meas < cands[j].meas
		}
		return cands[i].analyticRank < cands[j].analyticRank
	}
	switch req.Measure {
	case p2.MeasureOff:
	case p2.MeasureRerank:
		// Only the analytic top K are emulated; lower them again, the
		// walk above did not keep their lowered form.
		if req.TopK > 0 && len(cands) > req.TopK {
			cands = cands[:req.TopK]
		}
		lps = lps[:0]
		for _, c := range cands {
			h, err := buildHierarchy(matrices[c.mi], req.ReduceAxes)
			if err != nil {
				return nil, err
			}
			lp, err := lowerProgram(c.prog, h)
			if err != nil {
				return nil, err
			}
			lps = append(lps, lp)
		}
		id = t.begin("netsim.measure", root, op)
		for i, lp := range lps {
			cands[i].meas = simulate(model, lp, cands[i].stepAlgos, nil)
		}
		sums.sim += t.end(id, len(lps))
		sums.simulated += len(lps)
		for _, lp := range lps[:min(len(lps), eventSample)] {
			simulate(model, lp, nil, &sums.events)
			sums.eventPrograms++
		}
		sort.Slice(cands, byMeasured)
	case p2.MeasureRankAll:
		sort.Slice(cands, byMeasured)
		sums.rankAllShapes++
		if cands[0].analyticRank < 10 {
			sums.top10Hits++
		}
	}
	if !out.partial && req.TopK > 0 && len(cands) > req.TopK {
		cands = cands[:req.TopK]
	}
	out.ranking = make([]entry, len(cands))
	for i, c := range cands {
		out.ranking[i] = entry{
			Matrix:  matrices[c.mi].String(),
			Program: c.prog.String(),
			Algo:    algoString(model.Algo, c.stepAlgos),
			Pred:    sig9(c.pred),
			Meas:    measString(c.meas),
		}
	}
	out.dur = t.end(root, len(out.ranking))
	return out, nil
}

// check compares the engine's ranking with the replay's. A full replay
// must equal it. A partial one must contain every engine entry on a
// placement it walked, and may hold nothing strictly faster than the
// engine's last entry that the engine left out.
func (r *replayed) check(engine []entry) string {
	if !r.partial {
		return diffEntries(engine, r.ranking)
	}
	kept := map[entry]bool{}
	for _, e := range engine {
		kept[e] = true
	}
	worst, err := strconv.ParseFloat(engine[len(engine)-1].Pred, 64)
	if err != nil {
		return err.Error()
	}
	walked := map[entry]bool{}
	for _, e := range r.ranking {
		walked[e] = true
		if pred, _ := strconv.ParseFloat(e.Pred, 64); pred < worst && !kept[e] { // e.Pred is sig9 output
			return fmt.Sprintf("replay found %+v, faster than the engine's rank %d, which the engine left out", e, len(engine))
		}
	}
	for i, e := range engine {
		if r.visited[e.Matrix] && !walked[e] {
			return fmt.Sprintf("engine's rank %d %+v is not among the replay's candidates on that placement", i+1, e)
		}
	}
	return ""
}
