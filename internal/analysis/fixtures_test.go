package analysis

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtures_test.go is the fixture harness, mirroring the conventions of
// golang.org/x/tools/go/analysis/analysistest: a fixture package lives
// under testdata/src/<name>/, every line expecting a diagnostic carries a
// trailing `// want "regexp"` comment, and RunFixture fails the test on
// any mismatch in either direction. Fixtures are loaded through the real
// driver (Load, the annotation scanner, AppliesTo gating — fixture paths
// are always accepted) and must typecheck as strictly as the tree does, so
// the harness exercises exactly the path p2lint runs in CI.

// wantRe matches `// want "..."` with an optional second expectation for
// lines two analyzers flag: `// want "a" "b"`.
var wantRe = regexp.MustCompile(`// want (".*")$`)

// RunFixture runs the analyzers over testdata/src/<dir> and checks the
// diagnostics against the fixture's `want` comments.
func RunFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	fixture := filepath.Join("testdata", "src", dir)
	fset, pkgs, err := Load("", "./"+fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				t.Fatalf("analyzer %s rejected its own fixture package %s", a.Name, pkg.Path)
			}
		}
	}
	// The shared driver runs the fixture exactly as a real run does.
	var diags []Diagnostic
	if err := analyze(fset, pkgs, analyzers, &diags); err != nil {
		t.Fatalf("analyzing fixture %s: %v", fixture, err)
	}
	sortDiagnostics(diags)
	checkWants(t, fset, pkgs, diags)
}

// wantKey addresses one fixture line.
type wantKey struct {
	file string
	line int
}

// checkWants compares diagnostics against the fixture's want comments.
func checkWants(t *testing.T, fset *token.FileSet, pkgs []*LoadedPackage, diags []Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					key := wantKey{file: pos.Filename, line: pos.Line}
					for _, q := range splitQuoted(m[1]) {
						re, err := regexp.Compile(q)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
						}
						wants[key] = append(wants[key], re)
					}
				}
			}
		}
	}
	for _, d := range diags {
		key := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		res := wants[key]
		matched := -1
		for i, re := range res {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		wants[key] = append(res[:matched], res[matched+1:]...)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, re)
		}
	}
}

// splitQuoted parses the quoted sections of a want comment:
// `"a" "b"` -> ["a", "b"].
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '"')
		if start < 0 {
			return out
		}
		end := strings.IndexByte(s[start+1:], '"')
		if end < 0 {
			return out
		}
		out = append(out, s[start+1:start+1+end])
		s = s[start+1+end+1:]
	}
}
