// Package analysis is p2's static-analysis suite: a set of single-purpose
// analyzers that turn the planning engine's documented invariants —
// deterministic iteration, NaN-proof validation comparisons, zero-alloc
// hot paths, no wall-clock or randomness inside the engine, index-landed
// parallel fan-outs — into compile-time checks. The cmd/p2lint binary runs
// every analyzer over ./... in CI, so a refactor that silently breaks an
// invariant the example-based test matrix happens not to exercise is
// rejected at review time, not discovered as a flaky ranking later.
//
// The framework deliberately mirrors the golang.org/x/tools go/analysis
// vocabulary (Analyzer, Pass, Diagnostic, testdata fixtures with `want`
// comments) so the suite reads like any other multichecker, but it is
// self-contained: this module has no dependencies outside the standard
// library, so the loader (load.go) drives `go list -export` plus go/types
// directly instead of importing x/tools.
//
// # Escape hatches
//
// Every analyzer has exactly one escape hatch, a `//p2:` marker comment
// with a mandatory one-line justification (except //p2:zeroalloc, which is
// the opt-in marker itself). The markers are documented in DESIGN.md §10
// and cross-checked by scripts/docscheck.sh; the annot analyzer rejects
// unknown markers and missing justifications so an escape hatch can never
// be a typo.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one single-purpose static check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and fixture paths.
	Name string
	// Doc is the one-paragraph description printed by `p2lint -help`.
	Doc string
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts; nil means every loaded package. Analyzer
	// fixtures under internal/analysis/testdata are always accepted so the
	// analysistest harness exercises the real driver path.
	AppliesTo func(pkgPath string) bool
	// Collect, when non-nil, runs once per module before any Run,
	// publishing per-object facts (Module.ExportObjectFact) that this
	// analyzer's Run — or another analyzer's — consumes. The cross-function
	// analyzers use it to see callees and fields outside the current pass.
	Collect func(m *Module)
	// Run reports the package's violations through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzed package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Annot holds the package's parsed //p2: markers.
	Annot *Annotations
	// Module is the whole-run view (facts, call graph) for the
	// cross-function analyzers; single-package analyzers ignore it.
	Module *Module

	diags *[]Diagnostic
}

// Reportf records one violation at pos. The message should state the
// broken invariant; fix, when non-empty, is a concrete suggested rewrite
// appended as "fix: ...".
func (p *Pass) Reportf(pos token.Pos, fix, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Fix is the suggested rewrite or escape hatch.
	Fix string
}

// String renders the diagnostic the way p2lint prints it.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	if d.Fix != "" {
		s += " (fix: " + d.Fix + ")"
	}
	return s
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer —
// the deterministic output order of a run.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Marker is one //p2: annotation kind.
type Marker string

// The recognized annotation markers. Each is an analyzer's escape hatch
// (or, for zeroalloc, its opt-in); the set is documented in DESIGN.md §10
// and scripts/docscheck.sh cross-checks that table against this source
// and against the tree.
const (
	// MarkerOrderIndependent blesses a range over a map (detmaprange) or an
	// unordered fan-out collection (fanout) whose downstream consumption is
	// provably order-independent. Requires a justification.
	MarkerOrderIndependent Marker = "order-independent"
	// MarkerTimingOk blesses a wall-clock read inside the engine
	// (wallclock) whose value is reported, never ranked. Requires a
	// justification.
	MarkerTimingOk Marker = "timing-ok"
	// MarkerZeroalloc opts a function into the zeroalloc analyzer: its
	// body must contain no allocating constructs. Placed in the function's
	// doc comment; needs no justification (the marker is the claim).
	MarkerZeroalloc Marker = "zeroalloc"
	// MarkerAllocOk blesses one allocating line inside a //p2:zeroalloc
	// function — amortized scratch growth or a provably cold branch.
	// Requires a justification.
	MarkerAllocOk Marker = "alloc-ok"
	// MarkerNanOk blesses a NaN-unsafe float comparison (nanfloat) whose
	// operands are validated finite upstream. Requires a justification.
	MarkerNanOk Marker = "nan-ok"
	// MarkerCtxOk blesses a context.Background()/TODO() root or an
	// unthreaded blocking channel operation (ctxflow, leakcheck) — the
	// boundary shims where a fresh context is the documented contract, or
	// a send proven to unblock without cancellation. Requires a
	// justification.
	MarkerCtxOk Marker = "ctx-ok"
	// MarkerLockOk blesses a locking shape locksafe or atomichygiene would
	// reject — a WaitGroup.Add inside a goroutine ordered before Wait by a
	// happens-before edge, or a plain access to an atomic field proven
	// single-threaded at that point. Requires a justification.
	MarkerLockOk Marker = "lock-ok"
)

// markerNeedsWhy reports whether the marker requires a justification text.
func markerNeedsWhy(m Marker) bool { return m != MarkerZeroalloc }

// knownMarkers is the closed set of valid marker names.
var knownMarkers = map[Marker]bool{
	MarkerOrderIndependent: true,
	MarkerTimingOk:         true,
	MarkerZeroalloc:        true,
	MarkerAllocOk:          true,
	MarkerNanOk:            true,
	MarkerCtxOk:            true,
	MarkerLockOk:           true,
}

// annotation is one parsed //p2: comment.
type annotation struct {
	marker Marker
	why    string
	pos    token.Pos
}

// Annotations indexes a package's //p2: markers for line-level lookups.
// A marker covers the source line it sits on and, when it is the only
// thing on its line (a comment-above annotation), the line below it.
type Annotations struct {
	fset *token.FileSet
	// byLine maps file -> line -> annotations effective on that line.
	byLine map[string]map[int][]annotation
	// problems are malformed markers (unknown kind, missing justification),
	// reported by the annot analyzer.
	problems []Diagnostic
}

// parseAnnotations scans every comment of files for //p2: markers.
func parseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{fset: fset, byLine: map[string]map[int][]annotation{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				a.scanComment(c)
			}
		}
	}
	return a
}

// scanComment parses one comment for a //p2: marker and records it.
func (a *Annotations) scanComment(c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, "//p2:")
	if !ok {
		return
	}
	name, why, _ := strings.Cut(text, " ")
	m := Marker(name)
	pos := a.fset.Position(c.Pos())
	if !knownMarkers[m] {
		a.problems = append(a.problems, Diagnostic{
			Analyzer: "annot",
			Pos:      pos,
			Message:  fmt.Sprintf("unknown annotation marker //p2:%s", name),
			Fix:      "use one of: order-independent, timing-ok, zeroalloc, alloc-ok, nan-ok, ctx-ok, lock-ok (see DESIGN.md §10)",
		})
		return
	}
	// A fixture's trailing `// want "..."` expectation (analysistest places
	// wants on the flagged line) is not part of the justification.
	if i := strings.Index(why, "// want "); i >= 0 {
		why = why[:i]
	}
	why = strings.TrimSpace(why)
	if markerNeedsWhy(m) && why == "" {
		a.problems = append(a.problems, Diagnostic{
			Analyzer: "annot",
			Pos:      pos,
			Message:  fmt.Sprintf("//p2:%s requires a justification", name),
			Fix:      fmt.Sprintf("write //p2:%s <one-line reason the invariant holds anyway>", name),
		})
		return
	}
	// A marker covers its own line (trailing style) and the line below
	// (comment-above style). The one-line over-coverage of a trailing
	// marker is deliberate: distinguishing the styles needs the raw
	// source, and the extra line is the statement the marker already
	// blesses or a closing brace in every gofmt'd layout.
	ann := annotation{marker: m, why: why, pos: c.Pos()}
	lines := a.byLine[pos.Filename]
	if lines == nil {
		lines = map[int][]annotation{}
		a.byLine[pos.Filename] = lines
	}
	lines[pos.Line] = append(lines[pos.Line], ann)
	lines[pos.Line+1] = append(lines[pos.Line+1], ann)
}

// Covers reports whether a marker of kind m is in effect at pos: on the
// same source line, or on the line directly above (comment-above style).
func (a *Annotations) Covers(pos token.Pos, m Marker) bool {
	p := a.fset.Position(pos)
	for _, ann := range a.byLine[p.Filename][p.Line] {
		if ann.marker == m {
			return true
		}
	}
	return false
}

// FuncMarked reports whether fn's doc comment carries marker m.
func FuncMarked(fn *ast.FuncDecl, m Marker) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if text, ok := strings.CutPrefix(c.Text, "//p2:"); ok {
			name, _, _ := strings.Cut(text, " ")
			if Marker(name) == m {
				return true
			}
		}
	}
	return false
}

// Annot is the annotation-hygiene analyzer: it rejects unknown //p2:
// markers and escape hatches missing their justification, so a typoed
// annotation can never silently disable a real analyzer.
var Annot = &Analyzer{
	Name: "annot",
	Doc: "reject unknown //p2: markers and escape hatches without a justification; the valid set is " +
		"order-independent, timing-ok, zeroalloc, alloc-ok, nan-ok, ctx-ok, lock-ok (DESIGN.md §10)",
	Run: func(pass *Pass) error {
		*pass.diags = append(*pass.diags, pass.Annot.problems...)
		return nil
	},
}

// criticalPackages are the determinism-critical engine packages: a stray
// map-range or unordered fan-out in any of them can silently break the
// byte-identical-rankings contract (DESIGN.md §5).
var criticalPackages = map[string]bool{
	"p2/internal/plan":      true,
	"p2/internal/synth":     true,
	"p2/internal/lower":     true,
	"p2/internal/cost":      true,
	"p2/internal/placement": true,
	"p2/internal/netsim":    true,
	"p2/internal/eval":      true,
}

// inCritical gates an analyzer to the determinism-critical packages (and
// to its own fixtures, so analysistest exercises the gated path).
func inCritical(pkgPath string) bool {
	return criticalPackages[pkgPath] || isFixturePath(pkgPath)
}

// inEngine gates an analyzer to every engine package under p2/internal
// (and to fixtures). cmd/, examples/ and the repo-root CLI surface are
// free to print, time and randomize, and so are the two tooling
// packages excluded here: the analyzer suite itself and the load
// harness (internal/load), whose seeded workload PRNG and wall-clock
// latency measurement are its entire purpose — it measures the engine
// and is never imported by it (DESIGN.md §10, §12).
func inEngine(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "p2/internal/") &&
		!strings.Contains(pkgPath, "internal/analysis") &&
		pkgPath != "p2/internal/load" ||
		isFixturePath(pkgPath)
}

// inCancellable gates an analyzer to the packages bound by the PR 8
// cancellation contract (DESIGN.md §11): the engine packages plus the
// root p2 package whose PlanCtx/PlanJointCtx entry points anchor it.
// cmd/ and examples/ own their process lifetime and may block freely.
func inCancellable(pkgPath string) bool {
	return pkgPath == "p2" || inEngine(pkgPath)
}

// isFixturePath reports whether pkgPath is an analysistest fixture.
func isFixturePath(pkgPath string) bool {
	return strings.Contains(pkgPath, "analysis/testdata/")
}

// All is the full analyzer suite in the order p2lint runs it: the PR 7
// single-function analyzers first, then the cross-function concurrency
// and cancellation set built on the facts engine (facts.go).
var All = []*Analyzer{
	Annot, DetMapRange, NaNFloat, ZeroAlloc, WallClock, FanOut,
	CtxFlow, AtomicHygiene, LockSafe, ErrFlow, LeakCheck, Exhaustive,
}
