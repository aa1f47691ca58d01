package plan

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"p2/internal/cost"
	"p2/internal/placement"
	"p2/internal/topology"
)

// The cancellation contract (DESIGN.md §11) promises more than an error:
// a cancelled run returns only after every goroutine it started — the
// producer, the lazily spawned workers, the measurement fan-out — has
// exited. These tests hold that at runtime.

// waitGoroutines polls runtime.NumGoroutine back down to base within a
// bounded wait, failing with a full goroutine dump if it never gets there.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			var dump strings.Builder
			pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines still running, baseline %d:\n%s", runtime.NumGoroutine(), base, dump.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamCancelReleasesGoroutines cancels from inside a caller-provided
// placement stream right after its second yield: the run must return the
// context error and leave no producer or worker goroutine behind.
func TestStreamCancelReleasesGoroutines(t *testing.T) {
	sys := topology.SuperPodSystem(4, 8)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(32)}
	for _, par := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		yields := 0
		stream := func(yield func(*placement.Matrix) bool) error {
			for _, m := range matrices {
				if !yield(m) {
					return nil
				}
				if yields++; yields == 2 {
					cancel()
				}
			}
			return nil
		}
		_, stats, err := New().RunStreamCtx(ctx, stream, []int{0}, model, Options{Parallelism: par})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
		if stats.Placements != 2 {
			t.Errorf("parallelism %d: %d placements streamed, want 2 (the stream stops at the first yield after cancel)", par, stats.Placements)
		}
		waitGoroutines(t, base)
	}
}

// TestRerankCompletedReleasesGoroutines: a RerankAll run at parallelism 4
// that runs to completion — producer, workers and the measurement fan-out
// all busy — returns only after every goroutine it started has exited, not
// just cancelled ones. The poll covers a goroutine that has signalled its
// WaitGroup but not yet unwound.
func TestRerankCompletedReleasesGoroutines(t *testing.T) {
	sys := topology.SuperPodSystem(2, 4)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(8)}
	base := runtime.NumGoroutine()
	_, stats, err := New().RunStreamCtx(context.Background(), streamOf(matrices), []int{0}, model, Options{Parallelism: 4, Rerank: RerankAll})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MeasuredCandidates != stats.Candidates || stats.Candidates == 0 {
		t.Fatalf("measured %d of %d candidates, want all", stats.MeasuredCandidates, stats.Candidates)
	}
	waitGoroutines(t, base)
}

// TestRerankDeadlineReleasesGoroutines lets a RerankAll run's deadline
// expire inside the measurement stage — the analytic stage complete, the
// emulator fan-out cut — and checks that the measurement workers exit.
// The deadline adapts until it lands there: measurement is the bulk of a
// rank-all run (≈ 30× its analytic stage on this shape), so a small
// multiple of the analytic time usually does on the first try.
func TestRerankDeadlineReleasesGoroutines(t *testing.T) {
	sys := topology.SuperPodSystem(2, 4)
	matrices, err := placement.Enumerate(sys.Hierarchy(), []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	model := &cost.Model{Sys: sys, Algo: cost.Ring, Bytes: cost.PayloadBytes(8)}
	start := time.Now()
	_, analytic, err := New().RunStreamCtx(context.Background(), streamOf(matrices), []int{0}, model, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := 3 * time.Since(start)
	for attempt := 0; attempt < 10; attempt++ {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, stats, err := New().RunStreamCtx(ctx, streamOf(matrices), []int{0}, model, Options{Parallelism: 2, Rerank: RerankAll})
		cancel()
		waitGoroutines(t, base)
		switch {
		case err == nil:
			deadline /= 2 // the whole run beat the deadline
		case !errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		case stats.Candidates < analytic.Candidates:
			deadline *= 2 // cut inside the analytic stage
		default:
			t.Logf("deadline %v landed in the measurement stage on attempt %d", deadline, attempt+1)
			if stats.MeasuredCandidates != 0 {
				t.Errorf("cancelled measurement reported %d measured candidates, want 0", stats.MeasuredCandidates)
			}
			return
		}
	}
	t.Fatalf("no deadline landed inside the measurement stage in 10 attempts (last %v)", deadline)
}
