package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout/*.golden from the current output")

// wallClockKey matches the export's wall-clock timing keys; every other
// number in the JSON is deterministic.
var wallClockKey = regexp.MustCompile(`"(synthesis|simulation|measure)_secs": [0-9.e+-]+`)

// maskWallClock blanks the wall-clock cells of eval and export output:
// the markdown "Synthesis (s)" column and the export's *_secs timings.
func maskWallClock(out string) string {
	out = wallClockKey.ReplaceAllString(out, `"${1}_secs": "<wall clock>"`)
	col := -1
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		cells := strings.Split(line, " | ")
		if col < 0 {
			for j, c := range cells {
				if c == "Synthesis (s)" {
					col = j
				}
			}
			continue
		}
		if col < len(cells) && strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| ---") && cells[col] != "" {
			cells[col] = "<wall clock>"
			lines[i] = strings.Join(cells, " | ")
		}
	}
	return strings.Join(lines, "\n")
}

// TestStdoutGolden pins the stdout of fast successful invocations of every
// planning subcommand byte for byte (wall-clock cells masked), so a change
// to flag handling or dispatch cannot silently change what a command
// prints. Regenerate deliberately with `go test ./cmd/p2/ -run
// StdoutGolden -update`.
func TestStdoutGolden(t *testing.T) {
	a100x2 := []string{"-system", "a100", "-nodes", "2", "-axes", "[4 8]", "-reduce", "[0]"}
	with := func(cmd string, extra ...string) []string {
		return append(append([]string{cmd}, a100x2...), extra...)
	}
	for _, tc := range []struct {
		name string
		args []string
		mask bool
	}{
		{"help", []string{"help"}, false},
		{"placements", []string{"placements", "-system", "a100", "-nodes", "4", "-axes", "[4 16]"}, false},
		{"hlo", with("hlo", "-matrix", "[[1 4] [2 4]]", "-elems", "1024"), false},
		{"verify", with("verify", "-matrix", "[[2 2] [1 8]]"), false},
		{"trace-summary", with("trace", "-matrix", "[[2 2] [1 8]]", "-summary"), false},
		{"tables-3", []string{"tables", "-table", "3"}, false},
		{"degrade", []string{"degrade", "-system", "a100", "-nodes", "2", "-axes", "[2 16]", "-reduce", "[0]",
			"-fault", "gpu:0/0:bw/10", "-top", "5"}, false},
		// The engine folds a uniform searched assignment, so -algo auto
		// renders an all-Ring winner "Ring", as synth does, not "Ring/Ring".
		{"degrade-auto", []string{"degrade", "-system", "a100", "-nodes", "2", "-axes", "[2 16]", "-reduce", "[0]",
			"-fault", "gpu:0/0:bw/10", "-top", "5", "-algo", "auto"}, false},
		{"synth", with("synth", "-top", "5"), false},
		{"synth-auto-topk3", with("synth", "-algo", "auto", "-topk", "3"), false},
		{"synth-rerank-topk3", with("synth", "-measure", "rerank", "-topk", "3"), false},
		{"eval", []string{"eval", "-system", "v100", "-nodes", "2", "-axes", "[4 4]", "-reduce", "[1]"}, true},
		{"export", []string{"export", "-system", "v100", "-nodes", "2", "-axes", "[4 4]", "-reduce", "[1]"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := exec(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			if tc.mask {
				out = maskWallClock(out)
			}
			path := filepath.Join("testdata", "stdout", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("stdout differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out, want)
			}
		})
	}
}
