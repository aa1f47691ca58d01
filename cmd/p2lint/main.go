// Command p2lint runs p2's static-analysis suite (internal/analysis) over
// the given packages — a self-contained multichecker enforcing the
// engine's documented invariants at compile time:
//
//	annot          //p2: markers are well-formed (valid kind + justification)
//	detmaprange    no range-over-map in determinism-critical packages
//	nanfloat       no NaN-unsafe float comparisons (==/!=, `x <= c` guards, math.Max/Min)
//	zeroalloc      //p2:zeroalloc functions contain no allocating constructs
//	wallclock      no time.Now/timers/math-rand inside the engine
//	fanout         parallel results land by index, not by arrival order
//	ctxflow        no context.Background/TODO in cancellable packages; ctx holders thread it to FooCtx variants
//	atomichygiene  no package-level sync/atomic functions: typed atomics (atomic.Int64) only
//	errflow        errors.Is/As over ==/!=, fmt.Errorf wraps with %w
//	exhaustive     switches over module enum types cover every constant or default
//
// Usage:
//
//	go run ./cmd/p2lint [-json] [-enable list] [-disable list] [packages]
//
// -json emits the diagnostics as a JSON array (the CI build artifact);
// -enable/-disable take comma-separated analyzer names and narrow the
// suite. The exit-code contract matches cmd/p2's: 0 clean (including -h),
// 1 when diagnostics are reported, 2 for usage errors (unknown flag or
// analyzer name). Escape hatches and their required justifications are
// documented in DESIGN.md §10.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"p2/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json output shape: one object per diagnostic,
// position split into file/line/col, paths relative to the working
// directory so the report is stable across checkouts.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Fix      string `json:"fix,omitempty"`
}

// run is the testable entry point. Exit-code contract (mirrors cmd/p2,
// enforced by TestExitCodeContract): 0 clean (including -h/-help), 1 when
// any diagnostic is reported, 2 for usage errors — unknown flags, unknown
// analyzer names, or a failed load.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("p2lint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	enable := fs.String("enable", "", "comma-separated analyzer names to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: p2lint [-json] [-enable list] [-disable list] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All {
			fmt.Fprintf(errOut, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(errOut, "p2lint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Run("", patterns, analyzers)
	if err != nil {
		fmt.Fprintln(errOut, "p2lint:", err)
		return 2
	}
	relativize(diags)
	if *jsonOut {
		printJSON(out, diags)
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "p2lint: %d invariant violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers narrows analysis.All by the -enable/-disable lists,
// rejecting unknown names (a typoed analyzer name silently running the
// wrong suite would be worse than an error).
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analysis.All {
		byName[a.Name] = a
	}
	parse := func(list string) (map[string]bool, error) {
		if list == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if byName[name] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (run -h for the list)", name)
			}
			set[name] = true
		}
		return set, nil
	}
	enabled, err := parse(enable)
	if err != nil {
		return nil, err
	}
	disabled, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range analysis.All {
		if enabled != nil && !enabled[a.Name] {
			continue
		}
		if disabled[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// relativize rewrites diagnostic file paths relative to the working
// directory: stable output for golden tests and CI artifacts.
func relativize(diags []analysis.Diagnostic) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(wd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
}

// printJSON emits the diagnostics as an indented JSON array — `[]` when
// clean, so the CI artifact is always parseable.
func printJSON(out io.Writer, diags []analysis.Diagnostic) {
	jds := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		jds = append(jds, jsonDiagnostic{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
			Fix:      d.Fix,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(jds); err != nil {
		fmt.Fprintln(os.Stderr, "p2lint: encoding report:", err)
	}
}
