package synth

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p2/internal/collective"
	"p2/internal/hierarchy"
	"p2/internal/placement"
	"p2/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/pinned.golden from this tree's Synthesize")

// pinnedHierarchy is one distinct synthesis hierarchy of the pinned set.
type pinnedHierarchy struct {
	name string
	h    *hierarchy.Hierarchy
}

// pinnedSet returns every distinct signature of the rows TestSynthesizePinned
// records: the six (system, axes) pairs of the benchmark's cold_topk superpod
// shapes, the multi-axis case with Collapse on and off, and one KindSystem and one
// KindRowBased row whose non-reduction levels make Admissible and the
// per-leaf targets differ from the all-reduction hierarchies.
func pinnedSet(tb testing.TB) []pinnedHierarchy {
	tb.Helper()
	rows := []struct {
		sys      *topology.System
		axes     []int
		red      []int
		kind     hierarchy.Kind
		collapse bool
	}{
		{topology.SuperPodSystem(2, 4), []int{8, 8}, []int{0}, hierarchy.KindReductionAxes, false},
		{topology.SuperPodSystem(3, 4), []int{12, 8}, []int{0}, hierarchy.KindReductionAxes, false},
		{topology.SuperPodSystem(4, 8), []int{16, 16}, []int{0}, hierarchy.KindReductionAxes, false},
		{topology.SuperPodSystem(4, 8), []int{4, 8, 8}, []int{0}, hierarchy.KindReductionAxes, false},
		{topology.SuperPodSystem(8, 8), []int{32, 16}, []int{0}, hierarchy.KindReductionAxes, false},
		{topology.SuperPodSystem(16, 32), []int{64, 64}, []int{0}, hierarchy.KindReductionAxes, false},
		{topology.A100System(4), []int{4, 4, 4}, []int{0, 2}, hierarchy.KindReductionAxes, true},
		{topology.A100System(4), []int{4, 4, 4}, []int{0, 2}, hierarchy.KindReductionAxes, false},
		{topology.A100System(2), []int{4, 8}, []int{0}, hierarchy.KindSystem, false},
		{topology.A100System(2), []int{4, 8}, []int{0}, hierarchy.KindRowBased, false},
	}
	var out []pinnedHierarchy
	seen := map[string]bool{}
	for _, row := range rows {
		matrices, err := placement.Enumerate(row.sys.Hierarchy(), row.axes)
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range matrices {
			h, err := hierarchy.Build(row.kind, m, row.red, hierarchy.Options{Collapse: row.collapse})
			if err != nil {
				tb.Fatal(err)
			}
			if seen[h.Signature()] {
				continue
			}
			seen[h.Signature()] = true
			// Signatures sharing sizes and reduction levels differ in
			// their groups; the ordinal keeps the names unique.
			name := fmt.Sprintf("%s %v r%v %s %v red%v #%d", row.sys.Name, row.axes, row.red, row.kind, h, h.ReductionLevel, len(out))
			out = append(out, pinnedHierarchy{name: name, h: h})
		}
	}
	return out
}

// pinnedOptions are the walks recorded per hierarchy. The memo-less walk of
// a deep hierarchy at full size is a tree of millions of nodes, so it is
// recorded where it stays under a second.
func pinnedOptions(h *hierarchy.Hierarchy) []Options {
	opts := []Options{{MaxSize: 3}, {MaxSize: 3, NoMemo: true}, {MaxSize: 5}}
	if h.NumLevels() <= 3 {
		opts = append(opts, Options{MaxSize: 5, NoMemo: true})
	}
	return opts
}

// digest is the SHA-256 over the ordered programs and their shapes.
func digest(res *Result) string {
	d := sha256.New()
	for i, p := range res.Programs {
		fmt.Fprintf(d, "%s\n%v\n", p, shapesOf(res, i))
	}
	return fmt.Sprintf("%x", d.Sum(nil))
}

// TestSynthesizePinned holds Synthesize to the output recorded at commit
// 5f1c3c9, before synthesis moved onto sealed, interned states: the ordered
// programs and shapes bit for bit, and a search effort that may only fall
// (the explored column was last re-recorded when the last step became
// goal-directed).
// Regenerate (only for a deliberate change of the program set) with
// `go test ./internal/synth/ -run SynthesizePinned -update`.
func TestSynthesizePinned(t *testing.T) {
	golden := filepath.Join("testdata", "pinned.golden")
	type want struct {
		sum                string
		programs, explored int
	}
	wants := map[string]want{}
	if !*update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			f := strings.Split(line, "\t")
			if len(f) != 4 {
				t.Fatalf("malformed golden line %q", line)
			}
			var w want
			w.sum = f[1]
			if _, err := fmt.Sscan(f[2], &w.programs); err != nil {
				t.Fatal(err)
			}
			if _, err := fmt.Sscan(f[3], &w.explored); err != nil {
				t.Fatal(err)
			}
			wants[f[0]] = w
		}
	}
	var rec strings.Builder
	checked := 0
	for _, ph := range pinnedSet(t) {
		for _, opts := range pinnedOptions(ph.h) {
			key := fmt.Sprintf("%s %+v", ph.name, opts)
			res := Synthesize(ph.h, opts)
			sum := digest(res)
			fmt.Fprintf(&rec, "%s\t%s\t%d\t%d\n", key, sum, len(res.Programs), res.Explored)
			if *update {
				continue
			}
			w, ok := wants[key]
			if !ok {
				t.Errorf("%s: not in the golden", key)
				continue
			}
			checked++
			if sum != w.sum || len(res.Programs) != w.programs {
				t.Errorf("%s: %d programs digest %s, pinned %d programs digest %s", key, len(res.Programs), sum, w.programs, w.sum)
			}
			if res.Explored > w.explored {
				t.Errorf("%s: explored %d instructions, pinned %d: the search effort may only fall", key, res.Explored, w.explored)
			}
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(rec.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if checked != len(wants) {
		t.Errorf("checked %d rows, golden has %d", checked, len(wants))
	}
}

// TestProgramKeyOrder: Synthesize never sorts — it walks candidates in
// their String order and emits size class by size class — so the order it
// reports must be the (size, Program.String) order, strictly, over every
// program of the pinned set.
func TestProgramKeyOrder(t *testing.T) {
	programs := 0
	for _, ph := range pinnedSet(t) {
		res := Synthesize(ph.h, Options{})
		prev := ""
		for i, p := range res.Programs {
			cur := p.String()
			if i > 0 {
				q := res.Programs[i-1]
				if len(q) > len(p) || len(q) == len(p) && prev >= cur {
					t.Fatalf("%s: program %d %q does not sort after program %d %q", ph.name, i, cur, i-1, prev)
				}
			}
			prev = cur
			programs++
		}
	}
	if programs < 40000 {
		t.Fatalf("test is vacuous: %d programs", programs)
	}
}

// TestCollidingStatesStayDistinct: a hash only narrows the interner's
// search. Two different states forced into one bucket get two ids, and the
// two contexts that differ only in them get two memo entries; an equal state
// and an equal context are found again.
func TestCollidingStatesStayDistinct(t *testing.T) {
	h := pinnedSet(t)[1].h
	s := new(synthesizer)
	s.reset(h, Options{})
	a, b := collective.InitialState(h.K(), 0), collective.InitialState(h.K(), 1)
	ida, idb := s.internHashed(a, 7), s.internHashed(b, 7)
	if ida == idb {
		t.Fatalf("distinct states in one bucket share id %d", ida)
	}
	if got := s.internHashed(collective.InitialState(h.K(), 0), 7); got != ida {
		t.Errorf("an equal state interned to %d, want %d", got, ida)
	}
	ctxA, ctxB := make([]int32, h.K()), make([]int32, h.K())
	for u := range ctxA {
		ctxA[u], ctxB[u] = ida, ida
	}
	ctxB[h.K()-1] = idb
	na, nb := s.nodeFor(ctxA), s.nodeFor(ctxB)
	if na == nb {
		t.Fatalf("distinct contexts share memo entry %d", na)
	}
	if s.res.MemoHits != 0 {
		t.Errorf("%d memo hits before any context repeated", s.res.MemoHits)
	}
	if got := s.nodeFor(append([]int32(nil), ctxB...)); got != nb || s.res.MemoHits != 1 {
		t.Errorf("an equal context found entry %d with %d hits, want %d with 1", got, s.res.MemoHits, nb)
	}
}
