package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// load_test.go covers the loader's error paths: packages that do not
// parse, packages that do not typecheck, imports without export data,
// and bad patterns. Each writes a throwaway module so the
// failures are hermetic and deliberate.

// writeModule lays out a one-package module under a temp dir and returns
// its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module broken\n\ngo 1.24.0\n"
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoadSyntaxError(t *testing.T) {
	root := writeModule(t, map[string]string{
		"bad/bad.go": "package bad\n\nfunc oops( {\n",
	})
	// go list -e still reports the package; the parse failure must surface
	// from typecheck with the import path in the message.
	_, _, err := Load(root, "./bad")
	if err == nil {
		t.Fatal("Load succeeded on a package that does not parse")
	}
	if !strings.Contains(err.Error(), "broken/bad") {
		t.Errorf("error does not name the failing package: %v", err)
	}
}

func TestLoadTypeErrorStrictVsLenient(t *testing.T) {
	files := map[string]string{
		"bad/bad.go": "package bad\n\nvar x int = \"not an int\"\n",
	}
	t.Run("strict", func(t *testing.T) {
		// go list -export may report the compile failure itself before
		// go/types runs; either surface must fail and name the package.
		_, _, err := Load(writeModule(t, files), "./bad")
		if err == nil || !strings.Contains(err.Error(), "broken/bad") {
			t.Errorf("a type error must fail the load with the package named, got: %v", err)
		}
	})
}

func TestLoadBrokenImport(t *testing.T) {
	root := writeModule(t, map[string]string{
		"bad/bad.go": "package bad\n\nimport \"no/such/dependency\"\n\nvar _ = dependency.X\n",
	})
	_, _, err := Load(root, "./bad")
	// The missing package has no export data, so the importer refuses it.
	if err == nil || !strings.Contains(err.Error(), "no export data") {
		t.Fatalf("an unresolvable import must fail for lack of export data, got: %v", err)
	}
}

func TestLoadBadPattern(t *testing.T) {
	_, _, err := Load("", "./does/not/exist")
	if err == nil || !strings.Contains(err.Error(), "does/not/exist") {
		t.Errorf("bad pattern must fail with the pattern named, got: %v", err)
	}
}

func TestLoadNoPatterns(t *testing.T) {
	// Zero patterns means `go list` defaults to the current directory; from
	// this package's own dir that loads internal/analysis itself.
	_, pkgs, err := Load("")
	if err != nil {
		t.Fatalf("Load() with no patterns: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "p2/internal/analysis" {
		t.Errorf("expected the current package back, got %+v", pkgs)
	}
}
