package cost

import (
	"math"
	"strings"
	"testing"

	"p2/internal/lower"
	"p2/internal/topology"
)

// FuzzParseAlgorithm checks the ParseAlgorithm ∘ String round trip: any
// accepted input must name an algorithm whose canonical String parses back
// to the same value, and acceptance must be exactly case-insensitive
// matching of a canonical name.
func FuzzParseAlgorithm(f *testing.F) {
	for _, a := range ExtendedAlgorithms {
		f.Add(a.String())
		f.Add(strings.ToLower(a.String()))
		f.Add(strings.ToUpper(a.String()))
	}
	f.Add("auto")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAlgorithm(s)
		if err != nil {
			// Rejected inputs must not case-fold to a valid name.
			for _, v := range ExtendedAlgorithms {
				if strings.EqualFold(s, v.String()) {
					t.Fatalf("rejected %q, which folds to %v", s, v)
				}
			}
			return
		}
		if !strings.EqualFold(s, a.String()) {
			t.Fatalf("accepted %q as %v without a case-fold match", s, a)
		}
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Fatalf("round trip of %v: got %v, %v", a, back, err)
		}
	})
}

// FuzzScheduleViews runs checkScheduleViews on generated (op, algo, n,
// payload) — n from 2 to 512, powers of two or not — and then scores a
// generated sequence of steps (ops, algorithms and payload fractions
// drawn per step) on two systems of different sizes with one reused
// Scorer, interleaving the systems at random: every step time must
// equal a fresh Scorer's bit for bit, which holds the dirty-entry reset
// and the rebinding to a fresh evaluator. Payloads outside 0 and 1 B to
// 1 EB are skipped: below a byte the per-round shares lose precision to
// subnormals, which says nothing about the schedule.
func FuzzScheduleViews(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0), 1e6+1.0/3, uint64(0))
	f.Add(uint8(1), uint8(1), uint16(10), 64.0, uint64(1))
	f.Add(uint8(2), uint8(2), uint16(9), 0.0, uint64(42))
	f.Add(uint8(3), uint8(0), uint16(254), 1.0, uint64(7))
	f.Add(uint8(4), uint8(1), uint16(510), 1e18, uint64(1)<<63)
	f.Add(uint8(0), uint8(2), uint16(94), PayloadBytes(2), uint64(0xdeadbeef))
	systems := []*topology.System{topology.V100System(2), topology.SuperPodSystem(3, 2)}
	f.Fuzz(func(t *testing.T, opIdx, algoIdx uint8, n16 uint16, bytes float64, seed uint64) {
		if !(bytes == 0 || (bytes >= 1 && bytes <= 1e18)) {
			t.Skip("payload outside 0 and [1 B, 1 EB]")
		}
		op := scheduleOps[int(opIdx)%len(scheduleOps)]
		algo := ExtendedAlgorithms[int(algoIdx)%len(ExtendedAlgorithms)]
		n := 2 + int(n16)%511
		checkScheduleViews(t, op, algo, n, bytes)

		g := 2 + (n-2)%15 // a group size both systems hold
		reused := new(Scorer)
		for k := 0; k < 8; k++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			r := seed >> 33
			sys := systems[r&1]
			a := ExtendedAlgorithms[(r>>2)%uint64(len(ExtendedAlgorithms))]
			rows := 1 + int(r>>4)%3 // payload fraction 1/3, 2/3 or 1
			st := lower.Step{Op: scheduleOps[(int(opIdx)+int(r>>6))%len(scheduleOps)],
				Groups: partition(sys.NumDevices(), g, r&2 != 0), Rows: rows, RowsOut: rows, K: 3}
			m := &Model{Sys: sys, Algo: a, Bytes: bytes}
			want := math.Float64bits(NewScorer(sys).StepTimeAlgo(m, st, a))
			if got := math.Float64bits(reused.StepTimeAlgo(m, st, a)); got != want {
				t.Fatalf("step %d on %s, %v g=%d: reused scorer %016x, fresh %016x", k, sys.Name, a, g, got, want)
			}
		}
	})
}
