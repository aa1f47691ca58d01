package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// exec runs the CLI and returns (stdout, stderr, exit code).
func exec(args ...string) (string, string, int) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestNoArgs(t *testing.T) {
	_, errOut, code := exec()
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "commands:") {
		t.Error("usage missing")
	}
}

func TestUnknownCommand(t *testing.T) {
	_, errOut, code := exec("frobnicate")
	if code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Errorf("exit=%d err=%q", code, errOut)
	}
}

func TestHelp(t *testing.T) {
	out, _, code := exec("help")
	if code != 0 || !strings.Contains(out, "placements") {
		t.Errorf("help failed: %d %q", code, out)
	}
}

func TestPlacementsCommand(t *testing.T) {
	out, errOut, code := exec("placements", "-system", "a100", "-nodes", "4", "-axes", "[4 16]")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"3 placements", "[[1 4] [4 4]]", "[[4 1] [1 16]]"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPlacementsBadAxes(t *testing.T) {
	_, errOut, code := exec("placements", "-axes", "[3 5]")
	if code != 1 || !strings.Contains(errOut, "p2:") {
		t.Errorf("exit=%d err=%q", code, errOut)
	}
}

func TestSynthCommand(t *testing.T) {
	out, errOut, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-top", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "strategies") || !strings.Contains(out, "AllReduce") {
		t.Errorf("output:\n%s", out)
	}
}

func TestSynthParallelismAndTopK(t *testing.T) {
	// The ranking must not depend on the worker count, and -topk must
	// return the identical leading strategies.
	ref, errOut, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-parallelism", "1", "-top", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	par, errOut, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-parallelism", "4", "-top", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if par != ref {
		t.Errorf("-parallelism 4 output differs from -parallelism 1:\n%s\nvs\n%s", par, ref)
	}
	topk, errOut, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-parallelism", "4", "-topk", "5", "-top", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// Same 5 leading strategies; only the reported total count differs.
	refLines := strings.SplitN(ref, "\n", 2)
	topkLines := strings.SplitN(topk, "\n", 2)
	if !strings.Contains(topkLines[0], "5 strategies") {
		t.Errorf("-topk 5 header: %q", topkLines[0])
	}
	if topkLines[1] != refLines[1] {
		t.Errorf("-topk 5 strategies differ from full ranking prefix:\n%s\nvs\n%s",
			topkLines[1], refLines[1])
	}
}

func TestSynthMeasureRerankDeterministic(t *testing.T) {
	// Measured re-ranking must not depend on the worker count: the
	// emulator and the tie order are pure functions of the request.
	args := func(par string) []string {
		return []string{"synth", "-system", "a100", "-nodes", "2",
			"-axes", "[4 8]", "-reduce", "[0]", "-topk", "5",
			"-measure", "rerank", "-parallelism", par}
	}
	ref, errOut, code := exec(args("1")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(ref, "fastest measured first") || !strings.Contains(ref, "meas") {
		t.Errorf("measured header/column missing:\n%s", ref)
	}
	for _, par := range []string{"4", "16"} {
		got, errOut, code := exec(args(par)...)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errOut)
		}
		if got != ref {
			t.Errorf("-parallelism %s re-ranked output differs from -parallelism 1:\n%s\nvs\n%s", par, got, ref)
		}
	}
}

func TestSynthMeasureRankAllPrefix(t *testing.T) {
	// rank-all -topk K must return the first K entries of the full
	// measured ranking.
	full, errOut, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-measure", "rank-all", "-top", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	topk, errOut, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-measure", "rank-all", "-topk", "5", "-top", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	fullLines := strings.SplitN(full, "\n", 2)
	topkLines := strings.SplitN(topk, "\n", 2)
	if topkLines[1] != fullLines[1] {
		t.Errorf("rank-all -topk 5 differs from full measured ranking prefix:\n%s\nvs\n%s",
			topkLines[1], fullLines[1])
	}
}

func TestMeasureBadMode(t *testing.T) {
	_, errOut, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-measure", "bogus")
	if code != 1 || !strings.Contains(errOut, "unknown -measure mode") {
		t.Errorf("exit=%d err=%q", code, errOut)
	}
}

func TestEvalRejectsMeasure(t *testing.T) {
	_, errOut, code := exec("eval", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-measure", "rerank")
	if code != 1 || !strings.Contains(errOut, "flag provided but not defined: -measure") {
		t.Errorf("exit=%d err=%q", code, errOut)
	}
}

func TestSynthWithMatrix(t *testing.T) {
	out, _, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-matrix", "[[2 2] [1 8]]", "-top", "0")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, "[[1 4]") {
		t.Error("matrix restriction ignored")
	}
}

func TestEvalCommand(t *testing.T) {
	out, errOut, code := exec("eval", "-system", "v100", "-nodes", "2",
		"-axes", "[4 4]", "-reduce", "[1]", "-algo", "Ring", "-tsv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "Speedup") || !strings.Contains(out, "\t") {
		t.Errorf("TSV output:\n%s", out)
	}
}

func TestEvalAutoCommand(t *testing.T) {
	// -algo auto emits the fixed-vs-auto comparison; on the paper's A100
	// 4-node [4 16] sweep the search strictly beats pinned Ring on at
	// least one matrix (emulator and search are deterministic).
	out, errOut, code := exec("eval", "-system", "a100", "-nodes", "4",
		"-axes", "[4 16]", "-reduce", "[0]", "-algo", "auto", "-tsv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "Auto assignment") || !strings.Contains(out, "Winner") {
		t.Fatalf("comparison table missing:\n%s", out)
	}
	autoWins := false
	for _, line := range strings.Split(out, "\n") {
		cols := strings.Split(line, "\t")
		if len(cols) == 7 && cols[6] == "auto" {
			autoWins = true // auto strictly beat both pinned algorithms
		}
	}
	if !autoWins {
		t.Errorf("no config where auto strictly beats fixed Ring:\n%s", out)
	}
}

func TestSynthAutoShowsAssignments(t *testing.T) {
	out, errOut, code := exec("synth", "-system", "v100", "-nodes", "4",
		"-axes", "[32]", "-reduce", "[0]", "-algo", "auto", "-top", "0")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "HalvingDoubling") {
		t.Errorf("auto synth never chose HalvingDoubling:\n%s", out)
	}
	if !strings.Contains(out, "/") || !strings.Contains(out, "Ring") {
		t.Errorf("expected mixed per-step assignments in:\n%s", out)
	}
}

func TestExportCommand(t *testing.T) {
	out, errOut, code := exec("export", "-system", "v100", "-nodes", "2",
		"-axes", "[4 4]", "-reduce", "[1]")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, `"system": "v100-2node"`) {
		t.Errorf("JSON output:\n%s", out)
	}
}

func TestHLOCommand(t *testing.T) {
	out, errOut, code := exec("hlo", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-matrix", "[[2 2] [1 8]]",
		"-program", "(1, InsideGroup, ReduceScatter); (1, Parallel(0), AllReduce); (1, InsideGroup, AllGather)",
		"-elems", "1024")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"HloModule", "reduce-scatter", "all-reduce", "all-gather"} {
		if !strings.Contains(out, want) {
			t.Errorf("HLO missing %q:\n%s", want, out)
		}
	}
}

func TestHLOBestProgram(t *testing.T) {
	out, errOut, code := exec("hlo", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-matrix", "[[1 4] [2 4]]")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "HloModule") {
		t.Errorf("output:\n%s", out)
	}
}

func TestHLORequiresMatrix(t *testing.T) {
	_, errOut, code := exec("hlo", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]")
	if code != 1 || !strings.Contains(errOut, "-matrix") {
		t.Errorf("exit=%d err=%q", code, errOut)
	}
}

func TestVerifyCommand(t *testing.T) {
	out, errOut, code := exec("verify", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-matrix", "[[2 2] [1 8]]")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "OK:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestFigure11Chart(t *testing.T) {
	out, errOut, code := exec("figure11", "-panel", "a", "-chart")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "measured") || !strings.Contains(out, "Figure 11") {
		t.Errorf("chart output:\n%s", out)
	}
}

func TestFigure11UnknownPanel(t *testing.T) {
	_, _, code := exec("figure11", "-panel", "z")
	if code != 1 {
		t.Errorf("exit = %d", code)
	}
}

func TestTablesUnknown(t *testing.T) {
	_, _, code := exec("tables", "-table", "99")
	if code != 1 {
		t.Errorf("exit = %d", code)
	}
}

func TestTables3V100TwoNode(t *testing.T) {
	out, errOut, code := exec("tables", "-table", "3", "-system", "v100", "-nodes", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "Table 3") {
		t.Errorf("output:\n%s", out)
	}
}

// TestBuildSystemErrors checks -system resolution: presets resolve
// case-insensitively, an unknown name fails, and a negative -nodes, or
// -nodes on a fixed-shape preset, is refused instead of silently planning
// the default or the preset's own shape.
func TestBuildSystemErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "a100", "-nodes", "2", "-axes", "[32]"},
		{"-system", "V100", "-nodes", "2", "-axes", "[16]"},
		{"-system", "fig2a", "-axes", "[16]"},
		{"-system", "superpod:2x2", "-axes", "[32]"},
	} {
		if _, errOut, code := exec(append([]string{"placements"}, args...)...); code != 0 {
			t.Errorf("%v: exit %d: %s", args, code, errOut)
		}
	}
	for _, args := range [][]string{
		{"-system", "tpu", "-axes", "[16]"},
		{"-system", "fig2a", "-nodes", "2", "-axes", "[16]"},
		{"-system", "superpod:4x8", "-nodes", "8", "-axes", "[256]"},
		{"-system", "a100", "-nodes", "-2", "-axes", "[4 16]"},
		{"-system", "fig2a", "-nodes", "-2", "-axes", "[16]"},
	} {
		out, errOut, code := exec(append([]string{"placements"}, args...)...)
		if code != 1 || out != "" || !strings.Contains(errOut, "p2:") {
			t.Errorf("%v: exit=%d out=%q err=%q", args, code, out, errOut)
		}
	}
	if _, errOut, _ := exec("synth", "-system", "superpod:4x8", "-nodes", "8", "-axes", "[16 16]"); !strings.Contains(errOut, "node count") {
		t.Errorf("-nodes on superpod:4x8: stderr does not name the node count: %q", errOut)
	}
	// A system of 2³² or more devices is refused while resolving -system,
	// before any axes check or planning.
	for _, args := range [][]string{
		{"placements", "-system", "superpod:4294967296x4294967296", "-axes", "[4]"},
		{"synth", "-system", "a100", "-nodes", "536870912", "-axes", "[16]"},
	} {
		out, errOut, code := exec(args...)
		if code != 1 || out != "" || !strings.Contains(errOut, "2^32") {
			t.Errorf("%v: exit=%d out=%q err=%q", args, code, out, errOut)
		}
	}
}

func TestTraceSummaryCommand(t *testing.T) {
	out, errOut, code := exec("trace", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-matrix", "[[2 2] [1 8]]", "-summary")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "emulated total") || !strings.Contains(out, "step 0") {
		t.Errorf("summary output:\n%s", out)
	}
}

func TestTraceJSONCommand(t *testing.T) {
	out, errOut, code := exec("trace", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-matrix", "[[2 2] [1 8]]",
		"-program", "(0, InsideGroup, AllReduce)")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "traceEvents") {
		t.Errorf("trace output:\n%s", out)
	}
}

func TestTraceUnknownProgram(t *testing.T) {
	_, errOut, code := exec("trace", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-program", "(0, InsideGroup, Broadcast)")
	if code != 1 || !strings.Contains(errOut, "not synthesized") {
		t.Errorf("exit=%d err=%q", code, errOut)
	}
}

func TestDegradeCommand(t *testing.T) {
	out, errOut, code := exec("degrade", "-system", "a100", "-nodes", "2",
		"-axes", "[2 16]", "-reduce", "[0]", "-fault", "gpu:0/0:bw/10", "-top", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"1 link override(s)", "ranking shift:", "pairs flipped",
		"tau-distance", "best strategy", "Degraded (s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDegradeDownLinkCommand(t *testing.T) {
	out, errOut, code := exec("degrade", "-system", "a100", "-nodes", "4",
		"-axes", "[4 16]", "-reduce", "[0]", "-fault", "node:2:down", "-top", "0")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "down link") {
		t.Errorf("down-link outage not spelled out:\n%s", out)
	}
}

// TestDegradeShiftedCommand pins the finite "best strategy shifted" line:
// a throttled GPU link makes Reduce+Broadcast beat the pristine AllReduce.
func TestDegradeShiftedCommand(t *testing.T) {
	out, errOut, code := exec("degrade", "-system", "a100", "-nodes", "4",
		"-axes", "[4 16]", "-reduce", "[0]", "-fault", "gpu:0/0:bw/10", "-top", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	want := "best strategy shifted: pristine winner [[1 4] [4 4]] via (0, InsideGroup, AllReduce) now costs 0.954s; " +
		"re-planning picks [[1 4] [4 4]] via (0, InsideGroup, Reduce); (0, InsideGroup, Broadcast) at 0.636s " +
		"(1.50x faster than keeping the stale plan)\n"
	if !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// TestDegradeNothingCompletesCommand: when no candidate avoids the down
// link, degrade says so instead of claiming a shift at NaNx.
func TestDegradeNothingCompletesCommand(t *testing.T) {
	out, errOut, code := exec("degrade", "-system", "a100", "-nodes", "4",
		"-axes", "[4 16]", "-reduce", "[1]", "-fault", "gpu:0/0:down", "-top", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	want := "no strategy avoids the down link: all 189 candidates never complete, " +
		"the pristine winner [[4 1] [1 16]] via (0, InsideGroup, AllReduce) (0.119s pristine) among them\n"
	if !strings.Contains(out, want) || strings.Contains(out, "NaN") || strings.Contains(out, "shifted") {
		t.Errorf("want %q and no NaN or shift claim:\n%s", want, out)
	}
}

func TestDegradeDeterministic(t *testing.T) {
	args := func(par string) []string {
		return []string{"degrade", "-system", "a100", "-nodes", "2",
			"-axes", "[2 16]", "-reduce", "[0]", "-fault", "gpu:0/0:bw/10",
			"-parallelism", par}
	}
	ref, errOut, code := exec(args("1")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, par := range []string{"4", "16"} {
		if got, _, _ := exec(args(par)...); got != ref {
			t.Errorf("-parallelism %s output differs from serial:\n%s\nvs\n%s", par, got, ref)
		}
	}
}

// TestExitCodeContract table-drives the CLI's exit-code contract over
// every subcommand: -h exits 0, an unknown flag exits 1 with the
// diagnostic on stderr, and stdout stays clean in both cases so pipes
// never see usage text or error spew.
func TestExitCodeContract(t *testing.T) {
	subcommands := []string{"placements", "synth", "eval", "export", "hlo",
		"verify", "trace", "tables", "figure11", "accuracy", "degrade", "serve", "loadtest"}
	for _, cmd := range subcommands {
		t.Run(cmd+"/help", func(t *testing.T) {
			out, errOut, code := exec(cmd, "-h")
			if code != 0 {
				t.Errorf("%s -h exit = %d, want 0", cmd, code)
			}
			if out != "" {
				t.Errorf("%s -h wrote usage to stdout: %q", cmd, out)
			}
			if !strings.Contains(errOut, "-h") && !strings.Contains(errOut, "Usage") {
				t.Errorf("%s -h printed no usage: %q", cmd, errOut)
			}
		})
		t.Run(cmd+"/bad flag", func(t *testing.T) {
			out, errOut, code := exec(cmd, "-definitely-not-a-flag")
			if code != 1 {
				t.Errorf("%s with unknown flag exit = %d, want 1", cmd, code)
			}
			if out != "" {
				t.Errorf("%s with unknown flag polluted stdout: %q", cmd, out)
			}
			if !strings.Contains(errOut, "flag provided but not defined") {
				t.Errorf("%s with unknown flag stderr: %q", cmd, errOut)
			}
		})
	}
}

// TestLoadtestCommand runs a small warm in-process closed-loop load
// test end to end: exit 0, throughput and tail latency in the summary,
// a clean cross-check, and the warm-start hit on the first hot request.
func TestLoadtestCommand(t *testing.T) {
	out, errOut, code := exec("loadtest", "-requests", "40", "-clients", "4", "-warm")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"req/s", "p99", "first hot cached: true",
		"crosscheck: client counts and /statz deltas agree"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut, "warmed") {
		t.Errorf("warm progress line missing from stderr: %q", errOut)
	}
}

func TestLoadtestErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"warm with url":  {"loadtest", "-url", "http://127.0.0.1:1", "-warm"},
		"bad mode":       {"loadtest", "-mode", "sideways"},
		"bad fractions":  {"loadtest", "-hot-frac", "0.9", "-timeout-frac", "0.9"},
		"dead url":       {"loadtest", "-url", "http://127.0.0.1:1", "-requests", "2"},
		"negative count": {"loadtest", "-requests", "-1"},
		"NaN fraction":   {"loadtest", "-hot-frac", "NaN"},
		"Inf rate":       {"loadtest", "-mode", "open", "-rps", "Inf"},
		"rate past 1e9":  {"loadtest", "-mode", "open", "-rps", "2e9"},
		// Refused before the in-process server boots and warms.
		"Inf rate, warm": {"loadtest", "-mode", "open", "-rps", "Inf", "-warm"},
	} {
		if _, errOut, code := exec(args...); code != 1 || !strings.Contains(errOut, "p2:") || strings.Contains(errOut, "warmed") {
			t.Errorf("%s: exit=%d err=%q", name, code, errOut)
		}
	}
}

// TestTimeoutExpiredBeforePlanning pins the deterministic end of the
// -timeout contract: a deadline that is already expired when planning
// starts scores nothing, so the command fails with the context error
// rather than fabricating an empty ranking.
func TestTimeoutExpiredBeforePlanning(t *testing.T) {
	out, errOut, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(errOut, "deadline") {
		t.Errorf("stderr does not name the deadline: %q", errOut)
	}
}

// TestTimeoutGenerousIsComplete pins the other end: a deadline the plan
// comfortably beats changes nothing — identical output, no PARTIAL label.
func TestTimeoutGenerousIsComplete(t *testing.T) {
	ref, _, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-top", "5")
	if code != 0 {
		t.Fatalf("reference run exit = %d", code)
	}
	got, errOut, code := exec("synth", "-system", "a100", "-nodes", "2",
		"-axes", "[4 8]", "-reduce", "[0]", "-top", "5", "-timeout", "10m")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	if got != ref {
		t.Errorf("-timeout 10m changed the output:\n%s\nvs\n%s", got, ref)
	}
	if strings.Contains(got, "PARTIAL") {
		t.Errorf("complete run labeled PARTIAL:\n%s", got)
	}
}

// TestTimeoutMidPlan drives a deadline into a large request. Whether the
// deadline lands before or after the first scored candidate depends on
// the machine, so both contract outcomes are legal — but each must be
// well-formed: exit 0 with the ranking (labeled PARTIAL if truncated),
// or exit 1 naming the deadline.
func TestTimeoutMidPlan(t *testing.T) {
	out, errOut, code := exec("synth", "-system", "superpod:4x8",
		"-axes", "[16 16]", "-reduce", "[0]", "-topk", "3", "-timeout", "150ms")
	switch code {
	case 0:
		if !strings.Contains(out, "strategies") {
			t.Errorf("exit 0 without a ranking:\n%s", out)
		}
	case 1:
		if !strings.Contains(errOut, "deadline") {
			t.Errorf("exit 1 without naming the deadline: %q", errOut)
		}
	default:
		t.Errorf("exit = %d, want 0 or 1", code)
	}
}

// TestNonFinitePayloadRefused: the flag package parses NaN and ±Inf as
// floats; -bytes refuses them through the rule the serve API's "bytes"
// shares (p2.CheckPayload) instead of planning NaN at the default payload
// or ranking every strategy at +Inf seconds.
func TestNonFinitePayloadRefused(t *testing.T) {
	for name, args := range map[string][]string{
		"synth NaN":   {"synth", "-system", "fig2a", "-axes", "[16]", "-bytes", "NaN"},
		"synth Inf":   {"synth", "-system", "fig2a", "-axes", "[16]", "-bytes", "Inf"},
		"synth +Inf":  {"synth", "-system", "fig2a", "-axes", "[16]", "-bytes", "+Inf"},
		"eval NaN":    {"eval", "-system", "fig2a", "-axes", "[4 4]", "-bytes", "nan"},
		"degrade Inf": {"degrade", "-system", "fig2a", "-axes", "[16]", "-fault", "gpu:0/0/0/0:bw/2", "-bytes", "inf"},
	} {
		out, errOut, code := exec(args...)
		if code != 1 || out != "" || !strings.Contains(errOut, "-bytes must be a finite") {
			t.Errorf("%s: exit=%d out=%q err=%q", name, code, out, errOut)
		}
	}
}

// TestNegativeDurationsRefused: the flag package accepts a negative
// duration, which a deadline or drain bound would read as "none" or its
// default; every duration flag refuses one with exit 1 instead. A serve
// that accepted one would start serving, hence the bounded wait.
func TestNegativeDurationsRefused(t *testing.T) {
	for name, args := range map[string][]string{
		"synth -timeout":         {"synth", "-system", "a100", "-nodes", "2", "-axes", "[4 8]", "-timeout", "-5ms"},
		"serve -request-timeout": {"serve", "-addr", "127.0.0.1:0", "-request-timeout", "-1s"},
		"serve -drain":           {"serve", "-addr", "127.0.0.1:0", "-drain", "-1s"},
	} {
		type result struct {
			out, errOut string
			code        int
		}
		done := make(chan result, 1)
		go func() {
			out, errOut, code := exec(args...)
			done <- result{out, errOut, code}
		}()
		select {
		case r := <-done:
			if r.code != 1 || r.out != "" || !strings.Contains(r.errOut, "must not be negative") {
				t.Errorf("%s: exit=%d out=%q err=%q", name, r.code, r.out, r.errOut)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: still running after 10s: the negative duration was accepted", name)
		}
	}
}

// TestTimeoutRejectedWhereMeaningless checks that commands that never
// plan refuse -timeout instead of silently ignoring it: placements and
// verify do not define it, and hlo -program refuses it explicitly.
func TestTimeoutRejectedWhereMeaningless(t *testing.T) {
	for name, args := range map[string][]string{
		"placements": {"placements", "-system", "a100", "-nodes", "2", "-axes", "[4 8]", "-timeout", "1s"},
		"verify": {"verify", "-system", "a100", "-nodes", "2", "-axes", "[4 8]", "-reduce", "[0]",
			"-matrix", "[[2 2] [1 8]]", "-timeout", "1s"},
		"hlo -program": {"hlo", "-system", "a100", "-nodes", "2", "-axes", "[4 8]", "-reduce", "[0]",
			"-matrix", "[[2 2] [1 8]]", "-program", "(0, InsideGroup, AllReduce)", "-timeout", "1s"},
	} {
		want := "flag provided but not defined: -timeout"
		if name == "hlo -program" {
			want = "p2: -timeout has no effect"
		}
		if _, errOut, code := exec(args...); code != 1 || !strings.Contains(errOut, want) {
			t.Errorf("%s: exit=%d err=%q", name, code, errOut)
		}
	}
}

// TestUnplannedRejectIgnoredFlags: placements only enumerates, verify
// executes every synthesized program, and hlo -program lowers the given
// one, so none of them can honor the planner's algorithm, top-K or pool
// size (nor, for placements, a matrix or reduction set). placements and
// verify do not define those flags; hlo defines them for planning and
// refuses them next to -program.
func TestUnplannedRejectIgnoredFlags(t *testing.T) {
	base := []string{"-system", "a100", "-nodes", "2", "-axes", "[4 8]"}
	ignored := map[string]string{"algo": "Tree", "topk": "1", "parallelism": "3"}
	cmds := map[string][]string{
		"placements": {"placements"},
		"verify":     {"verify", "-reduce", "[0]", "-matrix", "[[2 2] [1 8]]"},
		"hlo -program": {"hlo", "-reduce", "[0]", "-matrix", "[[2 2] [1 8]]",
			"-program", "(0, InsideGroup, AllReduce)"},
	}
	row := func(cmd []string, flag, val string) []string {
		return append(append(append([]string{}, cmd...), base...), "-"+flag, val)
	}
	rows := map[string][]string{
		"placements -matrix": row(cmds["placements"], "matrix", "[[2 2] [1 8]]"),
		"placements -reduce": row(cmds["placements"], "reduce", "[1]"),
	}
	for name, cmd := range cmds {
		for flag, val := range ignored {
			rows[name+" -"+flag] = row(cmd, flag, val)
		}
	}
	for name, args := range rows {
		flag := name[strings.LastIndex(name, " ")+1:]
		want := "flag provided but not defined: " + flag
		if strings.HasPrefix(name, "hlo -program") {
			want = "p2: " + flag + " has no effect"
		}
		out, errOut, code := exec(args...)
		if code != 1 || !strings.Contains(errOut, want) {
			t.Errorf("%s: exit=%d err=%q", name, code, errOut)
		}
		if out != "" {
			t.Errorf("%s: wrote to stdout: %q", name, out)
		}
	}
}

// TestSweepsRejectIgnoredFlags: eval and export sweep every matrix,
// unpruned, and tables sweep the paper's grid, so they do not define the
// shared planning flags they cannot honor.
func TestSweepsRejectIgnoredFlags(t *testing.T) {
	sweep := []string{"-system", "v100", "-nodes", "2", "-axes", "[4 4]", "-reduce", "[1]"}
	rows := map[string][]string{}
	for _, cmd := range []string{"eval", "export"} {
		for flag, val := range map[string]string{"matrix": "[[1 4] [2 2]]", "topk": "1", "parallelism": "1"} {
			rows[cmd+" -"+flag] = append(append([]string{cmd}, sweep...), "-"+flag, val)
		}
	}
	for flag, val := range map[string]string{"axes": "[4 4]", "reduce": "[1]", "algo": "Tree",
		"matrix": "[[1 4] [2 2]]", "topk": "1", "parallelism": "1"} {
		rows["tables -"+flag] = []string{"tables", "-table", "3", "-system", "v100", "-nodes", "2", "-" + flag, val}
	}
	for name, args := range rows {
		flag := name[strings.Index(name, " ")+1:]
		out, errOut, code := exec(args...)
		if code != 1 || !strings.Contains(errOut, "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit=%d err=%q", name, code, errOut)
		}
		if out != "" {
			t.Errorf("%s: wrote to stdout: %q", name, out)
		}
	}
}

func TestDegradeErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no fault":  {"degrade", "-system", "a100", "-nodes", "2", "-axes", "[2 16]", "-reduce", "[0]"},
		"bad fault": {"degrade", "-system", "a100", "-nodes", "2", "-axes", "[2 16]", "-reduce", "[0]", "-fault", "warp:0:down"},
		"measure":   {"degrade", "-system", "a100", "-nodes", "2", "-axes", "[2 16]", "-reduce", "[0]", "-fault", "gpu:0/0:bw/10", "-measure", "rerank"},
		"matrix":    {"degrade", "-system", "a100", "-nodes", "2", "-axes", "[2 16]", "-reduce", "[0]", "-fault", "gpu:0/0:bw/10", "-matrix", "[[2 2] [1 16]]"},
	} {
		if _, errOut, code := exec(args...); code != 1 || !strings.Contains(errOut, "p2:") {
			t.Errorf("%s: exit=%d err=%q", name, code, errOut)
		}
	}
}
