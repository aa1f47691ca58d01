// Command p2 is the command-line interface to the P² synthesizer: it
// enumerates parallelism placements, synthesizes reduction strategies,
// evaluates them on the analytic model and the network emulator, and
// regenerates the paper's tables and figures.
//
// Usage:
//
//	p2 placements -system a100 -nodes 4 -axes "[4 16]"
//	p2 synth      -system a100 -nodes 4 -axes "[4 16]" -reduce "[0]" [-matrix "[[2 2] [2 8]]"] [-algo auto]
//	p2 synth      -system superpod:4x8 -axes "[16 16]" -reduce "[0]" -topk 5 -stats [-bytes 1e9] [-cpuprofile plan.prof]
//	p2 synth      -system superpod:4x8 -axes "[16 16]" -reduce "[0]" -topk 5 -measure rerank   # emulator re-ranked top-K
//	p2 eval       -system a100 -nodes 4 -axes "[4 16]" -reduce "[0]" -algo Ring
//	p2 eval       -system a100 -nodes 4 -axes "[4 16]" -reduce "[0]" -algo auto   # search NCCL_ALGO per step
//	p2 export     -system a100 -nodes 4 -axes "[4 16]" -reduce "[0]" -algo Ring   # JSON
//	p2 hlo        -system a100 -nodes 4 -axes "[4 16]" -reduce "[0]" -matrix "[[2 2] [2 8]]" -program "..."
//	p2 verify     -system a100 -nodes 4 -axes "[4 16]" -reduce "[0]" -matrix "[[2 2] [2 8]]"
//	p2 tables     -table 3|4|appendix [-system a100|v100] [-nodes N]
//	p2 figure11   -panel a|b [-chart]
//	p2 accuracy
//	p2 degrade    -system superpod:3x4 -axes "[12 8]" -reduce "[0]" -fault "gpu:0/0/0:bw/10"   # ranking shift under a degraded link
//	p2 degrade    -system a100 -nodes 4 -axes "[4 16]" -reduce "[0]" -fault "node:2:down"      # re-plan around a down NIC
//	p2 serve      -addr 127.0.0.1:8080 [-max-inflight N] [-cache-size N] [-request-timeout 2s] [-drain 5s] [-warm]
//	p2 loadtest   -mode closed -clients 8 -requests 200 -seed 1 [-warm] [-compare-warm] [-json]
//	p2 loadtest   -mode open -rps 50 -url http://127.0.0.1:8080   # against a running daemon
//	p2 synth      -system superpod:4x8 -axes "[16 16]" -reduce "[0]" -timeout 200ms            # anytime: best-so-far past the deadline
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// commands is the CLI. run dispatches by name and usage prints the
// summaries in this order.
var commands = []command{
	{"placements", "enumerate parallelism matrices for an axis configuration",
		"system nodes axes cpuprofile", cmdPlacements},
	{"synth", `synthesize reduction programs and rank them by predicted time
(-measure rerank re-ranks the analytic top-K on the emulator,
-measure rank-all ranks every candidate by measured time)`,
		"system nodes axes reduce algo matrix parallelism topk bytes measure timeout stats cpuprofile", cmdSynth},
	{"eval", `full sweep: synthesize, predict, measure, report per matrix
(-algo auto searches the per-step NCCL algorithm and reports
where it beats pinned Ring/Tree)`,
		"system nodes axes reduce algo bytes timeout cpuprofile", cmdEval},
	{"export", "full sweep emitted as JSON",
		"system nodes axes reduce algo bytes timeout cpuprofile", cmdExport},
	{"hlo", "emit a synthesized program as XLA-HLO-style module text",
		"system nodes axes reduce algo matrix parallelism topk bytes measure timeout cpuprofile", cmdHLO},
	{"verify", "execute synthesized programs on concrete data and check sums",
		"system nodes axes reduce matrix cpuprofile", cmdVerify},
	{"trace", "emulate one strategy and emit a Chrome trace of its transfers",
		"system nodes axes reduce algo matrix parallelism topk bytes measure timeout stats cpuprofile", cmdTrace},
	{"tables", "regenerate the paper's Table 3, Table 4 or the appendix table",
		"system nodes timeout cpuprofile", cmdTables},
	{"figure11", "regenerate a Figure 11 panel (-chart for an ASCII plot)", "", cmdFigure11},
	{"accuracy", `regenerate Table 5 (top-k prediction accuracy, full suite)
extended with auto-mode rows and the analytic-vs-measured
disagreement rate (-pinned-only for the Ring/Tree rows
alone, -json for the auto-sweep export)`, "", cmdAccuracy},
	{"degrade", `plan the same request on the pristine and a degraded system
(-fault "LEVEL:ENTITY:down|bw/F|lat*F|loss=F", repeatable) and
report the ranking shift (Kendall-tau) plus what re-planning
around the fault buys`,
		"system nodes axes reduce algo parallelism topk bytes timeout cpuprofile", cmdDegrade},
	{"serve", `run the planning daemon: POST /plan with per-request
deadlines (anytime best-so-far results), /healthz, /statz,
a cross-request strategy cache and graceful drain on SIGTERM
(-warm plans the paper-suite catalog into the cache first)`, "", cmdServe},
	{"loadtest", `drive a seeded synthetic workload against the daemon —
in-process by default, a remote one with -url — and report
throughput, p50/p95/p99/p99.9 latency and per-class counts
cross-checked against /statz deltas (-compare-warm measures
what cache warm-starting buys)`, "", cmdLoadtest},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches a CLI invocation; it is the testable entry point. The
// exit-code contract, enforced by TestExitCodeContract: 0 on success
// (including -h/-help on any subcommand), 1 on any command error —
// always reported to errOut, never to out — and 2 for usage errors at
// the dispatch level (no or unknown subcommand).
func run(args []string, out, errOut io.Writer) int {
	if len(args) < 1 {
		usage(errOut)
		return 2
	}
	name, rest := args[0], args[1:]
	if name == "help" || name == "-h" || name == "--help" {
		usage(out)
		return 0
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	if i < 0 {
		fmt.Fprintf(errOut, "p2: unknown command %q\n", name)
		usage(errOut)
		return 2
	}
	err := commands[i].run(rest, out, errOut)
	if errors.Is(err, flag.ErrHelp) {
		// -h on a subcommand: the FlagSet already printed its usage;
		// asking for help is not a failure.
		return 0
	}
	if err != nil {
		fmt.Fprintln(errOut, "p2:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, "p2 — parallelism placement and reduction strategy synthesis\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-10s  %s\n", c.name, strings.ReplaceAll(c.summary, "\n", "\n"+strings.Repeat(" ", 14)))
	}
}
