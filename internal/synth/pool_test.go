package synth

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"p2/internal/dsl"
	"p2/internal/hierarchy"
)

// poolMix returns hierarchies of 4 to 64 leaves, of three and four levels,
// for interleaving runs on the pooled synthesizers.
func poolMix(t *testing.T) []*hierarchy.Hierarchy {
	t.Helper()
	mix := []*hierarchy.Hierarchy{fig2d(t)}
	for _, ph := range pinnedSet(t) {
		mix = append(mix, ph.h)
	}
	ks := map[int]bool{}
	for _, h := range mix {
		ks[h.K()] = true
	}
	if !ks[4] || !ks[64] {
		t.Fatalf("the mix misses K 4 or 64: %v", ks)
	}
	return mix
}

// alone synthesizes h on a synthesizer no run has used, as a fresh process
// would, with Elapsed zeroed for comparison.
func alone(h *hierarchy.Hierarchy, opts Options) *Result {
	res := new(synthesizer).run(h, opts)
	res.Elapsed = 0
	return res
}

// deepCopy copies every slice a Result holds.
func deepCopy(r *Result) *Result {
	c := *r
	c.Programs = make([]dsl.Program, len(r.Programs))
	for i, p := range r.Programs {
		c.Programs[i] = slices.Clone(p)
	}
	c.StepIDs = make([][]int32, len(r.StepIDs))
	for i, ids := range r.StepIDs {
		c.StepIDs[i] = slices.Clone(ids)
	}
	c.Steps, c.Instructions = slices.Clone(r.Steps), slices.Clone(r.Instructions)
	return &c
}

// TestResultOutlivesPool: a Result shares no memory with the pooled
// synthesizer that made it. Runs on other hierarchies, which reuse that
// synthesizer's tables, leave a kept Result as it was.
func TestResultOutlivesPool(t *testing.T) {
	mix := poolMix(t)
	kept := Synthesize(fig2d(t), Options{})
	want := deepCopy(kept)
	runs := 0
	for runs < 20 {
		for _, h := range mix[1:] {
			Synthesize(h, Options{MaxSize: 3 + runs%3})
			runs++
		}
	}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("a kept Result changed over %d later runs", runs)
	}
}

// TestPooledRunsMatchAlone: eight goroutines synthesize the mix in
// different orders on the shared pool, and every Result equals the run of
// the same request on a synthesizer no run has used. Run it with -race.
func TestPooledRunsMatchAlone(t *testing.T) {
	// Every fourth, to keep -race short, and the last two, whose
	// non-reduction levels make the goals and the groupings' covers differ.
	var mix []*hierarchy.Hierarchy
	all := poolMix(t)
	for i, h := range all {
		if i%4 == 0 || i >= len(all)-2 {
			mix = append(mix, h)
		}
	}
	optsFor := func(i int) Options { return Options{MaxSize: 3 + i%3, NoMemo: i%5 == 3 && mix[i].K() <= 16} }
	want := make([]*Result, len(mix))
	for i, h := range mix {
		want[i] = alone(h, optsFor(i))
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range mix {
				i := (j*5 + g*3) % len(mix)
				got := Synthesize(mix[i], optsFor(i))
				got.Elapsed = 0
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %v %+v differs from a run alone", g, mix[i], optsFor(i))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunResetsTables: a synthesizer that ran a large hierarchy first
// holds, after a small one, tables of exactly the lengths a synthesizer
// that ran the small one alone does. A table that a run does not reset
// grows from run to run even where the Results hide it. owned is kept
// from run to run by design.
func TestRunResetsTables(t *testing.T) {
	mix := poolMix(t)
	large, small := mix[len(mix)-2], fig2d(t)
	warm, fresh := new(synthesizer), new(synthesizer)
	warm.run(large, Options{})
	warm.run(small, Options{MaxSize: 4})
	fresh.run(small, Options{MaxSize: 4})
	var walk func(path string, w, f reflect.Value)
	walk = func(path string, w, f reflect.Value) {
		switch w.Kind() {
		case reflect.Struct:
			for i := range w.NumField() {
				if name := w.Type().Field(i).Name; name != "owned" {
					walk(path+"."+name, w.Field(i), f.Field(i))
				}
			}
		case reflect.Slice, reflect.Map:
			if w.Len() != f.Len() {
				t.Errorf("%s has %d entries after a larger run, %d alone", path, w.Len(), f.Len())
			}
		}
	}
	walk("synthesizer", reflect.ValueOf(warm).Elem(), reflect.ValueOf(fresh).Elem())
}

// TestWarmSynthesizeAllocs: a warm run interns before it allocates and
// keeps its tables in the pool, so on the 3level-K8 hierarchy of
// BenchmarkSynthesize it allocates at most half the 700 objects a run
// allocated when every run built its tables and states from scratch.
func TestWarmSynthesizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	var h *hierarchy.Hierarchy
	for _, ph := range pinnedSet(t) {
		if strings.HasPrefix(ph.name, "superpod-2x4 [8 8]") && ph.h.String() == "[2 4]" {
			h = ph.h
			break
		}
	}
	if h == nil {
		t.Fatal("no [2 4] hierarchy of superpod-2x4 [8 8]")
	}
	Synthesize(h, Options{})
	if allocs := testing.AllocsPerRun(20, func() { Synthesize(h, Options{}) }); allocs > 350 {
		t.Errorf("%v allocations per warm run, want <= 350", allocs)
	}
}
