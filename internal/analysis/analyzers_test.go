package analysis

import (
	"strings"
	"testing"
)

// The fixture tests lock every analyzer's behavior — each flagged line in
// testdata/src/<name>/ carries a `// want "regexp"` expectation, and
// RunFixture fails on unexpected diagnostics and unmatched wants alike.
// Together they pin the acceptance criteria: a deliberately injected
// violation of each invariant is rejected with a position and a concrete
// fix suggestion, and every blessed escape-hatch shape stays silent.

func TestAnnotFixture(t *testing.T)       { RunFixture(t, "annot", Annot) }
func TestDetMapRangeFixture(t *testing.T) { RunFixture(t, "detmaprange", DetMapRange) }
func TestNaNFloatFixture(t *testing.T)    { RunFixture(t, "nanfloat", NaNFloat) }
func TestZeroAllocFixture(t *testing.T)   { RunFixture(t, "zeroalloc", ZeroAlloc) }
func TestWallClockFixture(t *testing.T)   { RunFixture(t, "wallclock", WallClock) }
func TestFanOutFixture(t *testing.T)      { RunFixture(t, "fanout", FanOut) }

// The concurrency and cancellation analyzers. The ctxflow fixture puts
// caller and callee in different files, so a pass exercises the call graph
// (facts.go) across file boundaries, not just within one inspection.
func TestCtxFlowFixture(t *testing.T)       { RunFixture(t, "ctxflow", CtxFlow) }
func TestAtomicHygieneFixture(t *testing.T) { RunFixture(t, "atomichygiene", AtomicHygiene) }
func TestLockSafeFixture(t *testing.T)      { RunFixture(t, "locksafe", LockSafe) }
func TestErrFlowFixture(t *testing.T)       { RunFixture(t, "errflow", ErrFlow) }
func TestLeakCheckFixture(t *testing.T)     { RunFixture(t, "leakcheck", LeakCheck) }
func TestExhaustiveFixture(t *testing.T)    { RunFixture(t, "exhaustive", Exhaustive) }

// TestLintTree is the self-test p2lint's CI step relies on: the full suite
// over the whole module must be clean. A failure here reproduces exactly
// what `go run ./cmd/p2lint ./...` would print.
func TestLintTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	diags, err := Run("../..", []string{"./..."}, All)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// BenchmarkLintTree tracks the wall time of a full-suite run over the
// whole module — the p2lint CI step's cost. The loader dominates (go list
// plus typechecking everything); a regression here slows every CI run,
// so the number is tracked alongside the engine benchmarks.
func BenchmarkLintTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diags, err := Run("../..", []string{"./..."}, All)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("lint tree not clean: %d diagnostics", len(diags))
		}
	}
}

// TestPackageGating pins which packages each gate accepts: detmaprange and
// fanout run only on the determinism-critical engine set, nanfloat and
// wallclock on all engine internals, and fixtures are always in scope so
// the harness exercises the gated path.
func TestPackageGating(t *testing.T) {
	cases := []struct {
		path                            string
		critical, inEngine, cancellable bool
	}{
		{"p2/internal/plan", true, true, true},
		{"p2/internal/synth", true, true, true},
		{"p2/internal/lower", true, true, true},
		{"p2/internal/cost", true, true, true},
		{"p2/internal/placement", true, true, true},
		{"p2/internal/netsim", true, true, true},
		{"p2/internal/eval", true, true, true},
		{"p2/internal/topology", false, true, true},
		{"p2/internal/verify", false, true, true},
		{"p2/internal/plot", false, true, true},
		// The root package anchors the cancellation contract (PlanCtx)
		// even though it is not an engine internal.
		{"p2", false, false, true},
		// The CLI surface and examples are free to print, time, randomize,
		// and block — they own their process lifetime.
		{"p2/cmd/p2", false, false, false},
		{"p2/examples/degraded", false, false, false},
		// The analyzer suite itself is exempt (it is not the engine)...
		{"p2/internal/analysis", false, false, false},
		// ...but its fixtures are always in scope.
		{"p2/internal/analysis/testdata/src/detmaprange", true, true, true},
		{"p2/internal/analysis/testdata/src/ctxflow", true, true, true},
	}
	for _, tc := range cases {
		if got := inCritical(tc.path); got != tc.critical {
			t.Errorf("inCritical(%q) = %v, want %v", tc.path, got, tc.critical)
		}
		if got := inEngine(tc.path); got != tc.inEngine {
			t.Errorf("inEngine(%q) = %v, want %v", tc.path, got, tc.inEngine)
		}
		if got := inCancellable(tc.path); got != tc.cancellable {
			t.Errorf("inCancellable(%q) = %v, want %v", tc.path, got, tc.cancellable)
		}
	}
}

// TestAnalyzerRegistry: every analyzer is registered exactly once, named,
// and documented — the p2lint -help listing depends on it.
func TestAnalyzerRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("analyzer %s registered twice", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
	for _, want := range []string{
		"annot", "detmaprange", "nanfloat", "zeroalloc", "wallclock", "fanout",
		"ctxflow", "atomichygiene", "locksafe", "errflow", "leakcheck", "exhaustive",
	} {
		if !seen[want] {
			t.Errorf("analyzer %s not registered in All", want)
		}
	}
}

// TestMarkerRules pins the closed marker set and the justification rule:
// every marker except the zeroalloc opt-in requires a why.
func TestMarkerRules(t *testing.T) {
	for m := range knownMarkers {
		if want := m != MarkerZeroalloc; markerNeedsWhy(m) != want {
			t.Errorf("markerNeedsWhy(%s) = %v, want %v", m, markerNeedsWhy(m), want)
		}
	}
	if len(knownMarkers) != 7 {
		t.Errorf("known marker set has %d entries, want 7 — update DESIGN.md §10 and docscheck.sh for new markers", len(knownMarkers))
	}
}

// TestDiagnosticString pins the rendered diagnostic shape the acceptance
// criteria require: position, analyzer, message, and the fix suggestion.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "nanfloat", Message: "float == comparison is NaN-unsafe", Fix: "use math.IsNaN"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 7, 9
	got := d.String()
	for _, part := range []string{"x.go:7:9", "[nanfloat]", "float == comparison", "fix: use math.IsNaN"} {
		if !strings.Contains(got, part) {
			t.Errorf("Diagnostic.String() = %q, missing %q", got, part)
		}
	}
}
