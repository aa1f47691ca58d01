package synth

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
)

// FuzzSynthesizeSound holds the synthesizer to the plain semantics on
// generated hierarchies: a parallelism matrix of up to 3 axes × 3 hardware
// levels with factors 1–6 (so fan-outs 3, 5 and 6 occur), any of the four
// hierarchy kinds, any non-empty set of reduction axes, up to five synthesis
// levels over at most 48 leaves, MaxSize ≤ 4. Every reported program must
// implement the reduction through Program.Run — which shares no table with
// the synthesizer — carry the shapes lower.Annotate derives, and come out
// of the memo-less walk identically; the reported order is strict, so no
// program appears twice. On at most 16 leaves the programs must also be
// exactly bruteForce's, which shares none of the search's pruning.
func FuzzSynthesizeSound(f *testing.F) {
	// The shapes of the pinned set — superpod:3x4 [12 8] → [3 2 2],
	// superpod:2x4 [8 8] → [2 2 2] and [2 4], a100:4 [4 4 4] r[0 2] with
	// Collapse on ([4 4]) and off ([2 2 2 2]) — then a [4 6] placement over
	// [2 12] as a system, a row-based and a column-based hierarchy (levels
	// off the reduction axes), and the odd fan-outs [5 3 2].
	f.Add(uint8(3), uint8(1), uint8(2), uint8(1), uint8(3), false, []byte{2, 1, 1, 0, 1, 3})
	f.Add(uint8(3), uint8(1), uint8(2), uint8(1), uint8(3), false, []byte{1, 1, 1, 0, 1, 3})
	f.Add(uint8(3), uint8(1), uint8(2), uint8(1), uint8(3), false, []byte{1, 3, 0, 0, 0, 5})
	f.Add(uint8(3), uint8(2), uint8(1), uint8(5), uint8(2), true, []byte{1, 1, 0, 3, 1, 1})
	f.Add(uint8(3), uint8(2), uint8(1), uint8(5), uint8(2), false, []byte{1, 1, 0, 3, 1, 1})
	f.Add(uint8(0), uint8(1), uint8(1), uint8(1), uint8(3), false, []byte{1, 1, 0, 5})
	f.Add(uint8(2), uint8(1), uint8(1), uint8(1), uint8(3), false, []byte{1, 1, 0, 5})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint8(3), false, []byte{1, 1, 0, 5})
	f.Add(uint8(3), uint8(0), uint8(2), uint8(1), uint8(3), false, []byte{4, 2, 1})
	f.Fuzz(func(t *testing.T, kind, nAxes, nLevels, reduceMask, maxSize uint8, collapse bool, entries []byte) {
		axes, levels := int(nAxes%3)+1, int(nLevels%3)+1
		if len(entries) < axes*levels {
			t.Skip("not enough factors")
		}
		x := make([][]int, axes)
		hier, sizes := make([]int, levels), make([]int, axes)
		devices := 1
		for i := range x {
			x[i], sizes[i] = make([]int, levels), 1
			for j := range x[i] {
				x[i][j] = int(entries[i*levels+j]%6) + 1
				sizes[i] *= x[i][j]
				devices *= x[i][j]
			}
		}
		if devices > 4096 {
			t.Skip("system too large")
		}
		for j := range hier {
			hier[j] = 1
			for i := range x {
				hier[j] *= x[i][j]
			}
		}
		m, err := placement.NewMatrix(hier, sizes, x)
		if err != nil {
			t.Skip(err)
		}
		var reduce []int
		for i := 0; i < axes; i++ {
			if reduceMask>>i&1 == 1 {
				reduce = append(reduce, i)
			}
		}
		if len(reduce) == 0 {
			reduce = []int{0}
		}
		k := hierarchy.Kinds[int(kind)%len(hierarchy.Kinds)]
		h, err := hierarchy.Build(k, m, reduce, hierarchy.Options{Collapse: collapse})
		if err != nil {
			t.Skip(err)
		}
		if h.K() > 48 || h.NumLevels() > 5 {
			t.Skip("universe too large")
		}
		opts := Options{MaxSize: int(maxSize%4) + 1}
		res := Synthesize(h, opts)
		for i, p := range res.Programs {
			if len(p) > opts.MaxSize {
				t.Fatalf("%v: program %v exceeds size %d", h, p, opts.MaxSize)
			}
			if !p.Implements(h) {
				t.Fatalf("%v %v: program %v does not implement the reduction", k, h, p)
			}
			want, err := lower.Annotate(p, h)
			if err != nil || !slices.Equal(shapesOf(res, i), want) {
				t.Fatalf("%v %v: program %v has shapes %v, Annotate derives %v (%v)", k, h, p, shapesOf(res, i), want, err)
			}
			if i == 0 {
				continue
			}
			q := res.Programs[i-1]
			if len(q) > len(p) || len(q) == len(p) && q.String() >= p.String() {
				t.Fatalf("%v %v: program %d %v does not sort after %v", k, h, i, p, q)
			}
		}
		opts.NoMemo = true
		plain := Synthesize(h, opts)
		if !reflect.DeepEqual(res.Programs, plain.Programs) || !reflect.DeepEqual(allShapes(res), allShapes(plain)) {
			t.Fatalf("%v %v: the memoized walk found %d programs, the memo-less walk %d, or they differ", k, h, len(res.Programs), len(plain.Programs))
		}
		if res.Explored > plain.Explored {
			t.Fatalf("%v %v: memoized walk explored %d, memo-less %d", k, h, res.Explored, plain.Explored)
		}
		if h.K() > 16 {
			return
		}
		if want := bruteForce(h, opts.MaxSize); !slices.EqualFunc(want, res.Programs, slices.Equal) {
			t.Fatalf("%v %v: Synthesize found %d programs, the brute force %d, or they differ", k, h, len(res.Programs), len(want))
		}
	})
}

// bruteForce is the completeness oracle: every sequence of at most maxSize
// candidates that dsl.Context.Apply runs and that ends AtGoal, by size and
// then Program.String. Only an Apply error cuts a prefix, so no pruning of
// the search — target bounding, the memo, the goal-directed last step, the
// shared preconditions — can hide a program from it.
func bruteForce(h *hierarchy.Hierarchy, maxSize int) []dsl.Program {
	cands := Candidates(h)
	var out []dsl.Program
	var prefix dsl.Program
	var walk func(ctx dsl.Context)
	walk = func(ctx dsl.Context) {
		if ctx.AtGoal(h) {
			out = append(out, slices.Clone(prefix))
		}
		if len(prefix) == maxSize {
			return
		}
		for _, in := range cands {
			if next, err := ctx.Apply(in, h); err == nil {
				prefix = append(prefix, in)
				walk(next)
				prefix = prefix[:len(prefix)-1]
			}
		}
	}
	walk(dsl.NewContext(h))
	slices.SortFunc(out, func(a, b dsl.Program) int {
		return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a.String(), b.String()))
	})
	return out
}

// allShapes reads every program's shapes off the step table, which the
// memoized and memo-less walks may number differently.
func allShapes(res *Result) [][]dsl.Shape {
	out := make([][]dsl.Shape, len(res.Programs))
	for i := range out {
		out[i] = shapesOf(res, i)
	}
	return out
}
