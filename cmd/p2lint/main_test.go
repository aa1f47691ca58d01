package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p2/internal/analysis"
)

// The errflow fixture doubles as the golden input: a real package with
// known diagnostics, loaded through the real driver from the repo root,
// exactly as CI invokes p2lint.
const errflowFixture = "./internal/analysis/testdata/src/errflow"

var update = flag.Bool("update", false, "rewrite the golden -json output")

// exec runs the CLI from the repo root and returns (stdout, stderr, exit
// code).
func exec(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	t.Chdir("../..")
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestExitCodeContract pins the same contract cmd/p2 has: 0 on success
// and -h, 1 when diagnostics are reported, 2 on usage errors.
func TestExitCodeContract(t *testing.T) {
	t.Run("help is success", func(t *testing.T) {
		_, errOut, code := exec(t, "-h")
		if code != 0 {
			t.Errorf("exit = %d, want 0", code)
		}
		if !strings.Contains(errOut, "ctxflow") || !strings.Contains(errOut, "exhaustive") {
			t.Errorf("usage must list all analyzers, got:\n%s", errOut)
		}
	})
	t.Run("unknown flag is usage error", func(t *testing.T) {
		if _, _, code := exec(t, "-frobnicate"); code != 2 {
			t.Errorf("exit = %d, want 2", code)
		}
	})
	t.Run("unknown analyzer is usage error", func(t *testing.T) {
		_, errOut, code := exec(t, "-enable", "bogus", errflowFixture)
		if code != 2 || !strings.Contains(errOut, `unknown analyzer "bogus"`) {
			t.Errorf("exit=%d err=%q", code, errOut)
		}
	})
	t.Run("everything disabled is usage error", func(t *testing.T) {
		_, errOut, code := exec(t, "-enable", "errflow", "-disable", "errflow", errflowFixture)
		if code != 2 || !strings.Contains(errOut, "no analyzers selected") {
			t.Errorf("exit=%d err=%q", code, errOut)
		}
	})
	t.Run("bad pattern is usage error", func(t *testing.T) {
		if _, _, code := exec(t, "./does/not/exist"); code != 2 {
			t.Errorf("exit = %d, want 2", code)
		}
	})
	t.Run("clean package is success", func(t *testing.T) {
		out, errOut, code := exec(t, "./cmd/p2lint")
		if code != 0 {
			t.Errorf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
		}
	})
	t.Run("findings exit 1", func(t *testing.T) {
		out, errOut, code := exec(t, "-enable", "errflow", errflowFixture)
		if code != 1 {
			t.Fatalf("exit = %d, want 1 (stderr %q)", code, errOut)
		}
		if !strings.Contains(errOut, "invariant violation(s)") {
			t.Errorf("summary missing from stderr: %q", errOut)
		}
		// Paths are relativized: stable across checkouts.
		if strings.Contains(out, "/root/") || !strings.Contains(out, "internal/analysis/testdata/src/errflow/errflow.go:") {
			t.Errorf("diagnostics not relative to the repo root:\n%s", out)
		}
	})
}

// TestDisableRemovesAnalyzer: -disable carves one analyzer out of the
// full suite rather than replacing it.
func TestDisableRemovesAnalyzer(t *testing.T) {
	analyzers, err := selectAnalyzers("", "errflow")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range analyzers {
		if a.Name == "errflow" {
			t.Error("-disable errflow left errflow selected")
		}
	}
	if len(analyzers) != len(analysis.All)-1 {
		t.Errorf("expected %d analyzers after disabling one, got %d", len(analysis.All)-1, len(analyzers))
	}
}

// TestGoldenJSON locks the -json report shape byte for byte. Regenerate
// with `go test ./cmd/p2lint -run Golden -update`.
func TestGoldenJSON(t *testing.T) {
	out, errOut, code := exec(t, "-json", "-enable", "errflow", errflowFixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %q)", code, errOut)
	}
	golden := filepath.Join("cmd", "p2lint", "testdata", "errflow.json")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("-json output differs from %s:\ngot:\n%s\nwant:\n%s", golden, out, want)
	}
	// The report must stay machine-readable: parse it back.
	var report []jsonDiagnostic
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(report) == 0 || report[0].Analyzer != "errflow" || report[0].Line == 0 {
		t.Errorf("report entries malformed: %+v", report)
	}
}
