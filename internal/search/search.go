// Package search provides cost-guided program synthesis: instead of
// enumerating every valid reduction program and ranking afterwards (the
// paper's pipeline, package synth), it runs a uniform-cost (Dijkstra)
// search over the context graph and returns only the cheapest program
// under an analytic cost model. Step costs are non-negative, so the first
// goal expansion is model-optimal; memoization is keyed by (context,
// program length) so a cheap long prefix cannot shadow a costlier short
// one that still has budget to extend.
//
// This is an extension beyond the paper (which notes its enumerative
// search is already fast); it matters when program-size limits grow or
// when only the optimum is needed.
package search

import (
	"container/heap"

	"p2/internal/collective"
	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/synth"
)

// Stats reports search effort.
type Stats struct {
	// Expanded counts contexts popped from the frontier.
	Expanded int
	// Generated counts successor contexts pushed.
	Generated int
}

// Best finds a minimum-predicted-cost program of at most maxSize steps
// (0 means the paper's limit of 5). It returns ok=false when no program
// within the limit implements the reduction.
func Best(h *hierarchy.Hierarchy, model *cost.Model, maxSize int) (prog dsl.Program, total float64, stats Stats, ok bool) {
	if maxSize <= 0 {
		maxSize = 5
	}
	cands := synth.Candidates(h)
	groups := make([][][]int, len(cands))
	lowered := make([][][]int, len(cands))
	for i, in := range cands {
		groups[i] = in.Groups(h)
		lowered[i] = lower.Bind(in, h)
	}

	targets := make([]*collective.State, h.K())
	for u := 0; u < h.K(); u++ {
		targets[u] = dsl.TargetState(h, u)
	}
	atGoal := func(ctx dsl.Context) bool {
		for u, st := range ctx {
			if !st.Equal(targets[u]) {
				return false
			}
		}
		return true
	}
	within := func(ctx dsl.Context) bool {
		for u, st := range ctx {
			if !st.SubsetOf(targets[u]) {
				return false
			}
		}
		return true
	}

	type node struct {
		ctx  dsl.Context
		prog dsl.Program
		g    float64
	}
	pq := &nodeHeap{}
	heap.Push(pq, item{cost: 0, seq: 0, n: node{ctx: dsl.NewContext(h)}})
	bestG := map[string]float64{}
	seq := 1

	for pq.Len() > 0 {
		it := heap.Pop(pq).(item)
		n := it.n.(node)
		stats.Expanded++
		if atGoal(n.ctx) {
			return n.prog, n.g, stats, true
		}
		if len(n.prog) == maxSize {
			continue
		}
		if prev, seen := bestG[ctxKey(n.ctx, len(n.prog))]; seen && prev < n.g {
			continue // stale frontier entry
		}
		for ci, in := range cands {
			next, _, err := n.ctx.ApplyGroups(in.Op, groups[ci])
			if err != nil {
				continue
			}
			if !within(next) {
				continue
			}
			rows := n.ctx[groups[ci][0][0]].NumRows()
			step := lower.Step{
				Op:      in.Op,
				Groups:  lowered[ci],
				Rows:    rows,
				RowsOut: rows, // unused by StepTime
				K:       h.K(),
			}
			g := n.g + model.StepTime(step)
			nk := ctxKey(next, len(n.prog)+1)
			if prev, seen := bestG[nk]; seen && prev <= g {
				continue
			}
			bestG[nk] = g
			np := make(dsl.Program, 0, len(n.prog)+1)
			np = append(np, n.prog...)
			np = append(np, in)
			heap.Push(pq, item{cost: g, seq: seq, n: node{ctx: next, prog: np, g: g}})
			seq++
			stats.Generated++
		}
	}
	return nil, 0, stats, false
}

// ctxKey packs a context and depth into a map key.
func ctxKey(ctx dsl.Context, depth int) string {
	var words []uint64
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(depth))
	for _, st := range ctx {
		words = st.AppendWords(words[:0])
		for _, w := range words {
			buf = append(buf,
				byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
	}
	return string(buf)
}

// item orders by cost with a sequence tiebreak for determinism.
type item struct {
	cost float64
	seq  int
	n    any
}

type nodeHeap []item

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	//p2:nan-ok node costs are model predictions, never NaN (finite or +Inf on down links)
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
