package p2_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"p2"
	"p2/internal/lower"
)

// FuzzPlanEquivalence holds the planning engine to the serial reference
// (PlanSerial, reference_test.go) on generated requests: a system of 1–3
// levels with counts 1–5 and at most 64 devices, per-level bandwidths and
// latencies, an optional link fault (down, throttled, slow or lossy), axes
// factoring the device count into 1–3 axes, a non-empty reduce set in
// either order, a payload from {0, NaN, a subnormal, +Inf, 1e9} and a
// pinned algorithm or the ExtendedAlgorithms search. PlanCtx at
// parallelism 1 and 4 with TopK 0 must rank byte for byte as PlanSerial
// does, TopK 1 and 3 must be exactly its prefix, every strategy must lower
// to the steps and groups of PlanSerial's lower.Lower program, and a
// request either path refuses the other refuses too.
func FuzzPlanEquivalence(f *testing.F) {
	// The determinism matrix's shapes within 64 devices: fig2a [4 4] r[0]
	// and [2 2 4] r[0 2] on [2 2 4], a100:4 [4 16] r[0] and [16 2 2]
	// r[0 2] and superpod:2x4 [8 8] r[0] on [4 4 4], superpod:3x4
	// [12 8] r[0] as [12 4] on [3 4 4], pinned and searched, and the
	// degraded row (leaf 13 at a tenth of its bandwidth); then a down
	// link and the odd payloads.
	const links = 0x0fa0 // NIC-class root, NVLink-class middle, NVSwitch-class leaf
	f.Add(uint8(2), uint32(0x030101), uint16(links), uint16(9), uint8(1), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint32(0x030101), uint16(links), uint16(134), uint8(5), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint32(0x030303), uint16(links), uint16(9), uint8(1), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint32(0x030303), uint16(links), uint16(146), uint8(5), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint32(0x030303), uint16(links), uint16(13), uint8(1), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint32(0x030101), uint16(links), uint16(9), uint8(1), uint16(0), uint8(0), uint8(3))
	f.Add(uint8(2), uint32(0x030303), uint16(links), uint16(9), uint8(1), uint16(0), uint8(0), uint8(3))
	f.Add(uint8(2), uint32(0x030303), uint16(links), uint16(13), uint8(1), uint16(0), uint8(0), uint8(3))
	f.Add(uint8(2), uint32(0x030302), uint16(links), uint16(25), uint8(1), uint16(0), uint8(0), uint8(3))
	f.Add(uint8(2), uint32(0x030302), uint16(links), uint16(25), uint8(1), uint16(434), uint8(0), uint8(0))
	f.Add(uint8(2), uint32(0x030302), uint16(links), uint16(25), uint8(1), uint16(434), uint8(0), uint8(3))
	f.Add(uint8(2), uint32(0x030302), uint16(links), uint16(25), uint8(1), uint16(73), uint8(0), uint8(3))
	f.Add(uint8(1), uint32(0x0204), uint16(0x00f0), uint16(5), uint8(0x83), uint16(0), uint8(1), uint8(1))
	f.Add(uint8(1), uint32(0x0204), uint16(0x00f0), uint16(5), uint8(2), uint16(0), uint8(2), uint8(2))
	f.Add(uint8(0), uint32(0x04), uint16(0), uint16(0), uint8(1), uint16(0), uint8(3), uint8(0))
	f.Add(uint8(0), uint32(0x04), uint16(0), uint16(0), uint8(1), uint16(0), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, levels uint8, counts uint32, links uint16, axes uint16, reduce uint8, fault uint16, payload, algo uint8) {
		sys, n := fuzzSystem(t, levels, counts, links, fault)
		req := p2.Request{Axes: fuzzAxes(n, axes)}
		for i := range req.Axes {
			if reduce>>i&1 == 1 {
				req.ReduceAxes = append(req.ReduceAxes, i)
			}
		}
		if len(req.ReduceAxes) == 0 {
			req.ReduceAxes = []int{0}
		}
		if reduce&0x80 != 0 {
			slices.Reverse(req.ReduceAxes)
		}
		req.Bytes = []float64{0, math.NaN(), math.SmallestNonzeroFloat64, math.Inf(1), 1e9}[payload%5]
		if a := int(algo % 4); a < 3 {
			req.Algo = []p2.Algorithm{p2.Ring, p2.Tree, p2.HalvingDoubling}[a]
		} else {
			req.Algos = p2.ExtendedAlgorithms
		}

		serial, serialErr := p2.PlanSerial(sys, req)
		for _, par := range []int{1, 4} {
			for _, k := range []int{0, 1, 3} {
				r := req
				r.Parallelism, r.TopK = par, k
				got, err := p2.PlanCtx(context.Background(), sys, r)
				if (err == nil) != (serialErr == nil) {
					t.Fatalf("%s %+v parallelism %d TopK %d: engine error %v, serial error %v",
						sys.Name, req, par, k, err, serialErr)
				}
				if err != nil {
					continue
				}
				if got.Partial {
					t.Fatalf("%s %+v parallelism %d TopK %d: uncancelled plan is partial", sys.Name, req, par, k)
				}
				prefix := serial.Strategies
				if k > 0 {
					prefix = prefix[:min(len(prefix), k)]
				}
				if g, w := planFingerprint(got), planFingerprint(&p2.PlanResult{Strategies: prefix}); g != w {
					t.Fatalf("%s %+v parallelism %d TopK %d: ranking differs from the serial one:\ngot:\n%swant:\n%s",
						sys.Name, req, par, k, g, w)
				}
				for i, s := range got.Strategies {
					if err := sameLowering(s.Lowered(), prefix[i].Lowered()); err != nil {
						t.Fatalf("%s %+v parallelism %d TopK %d: rank %d %v %v: %v",
							sys.Name, req, par, k, i, s.Matrix, s.Program, err)
					}
				}
			}
		}
	})
}

// sameLowering compares an engine strategy's lowered program to the serial
// reference's lower.Lower program: the rendering and every step's groups.
func sameLowering(got, want *lower.Program) error {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Errorf("lowered %q, lower.Lower gives %q", g, w)
	}
	for i := range want.Steps {
		if g, w := got.Steps[i].Groups, want.Steps[i].Groups; !slices.EqualFunc(g, w, slices.Equal) {
			return fmt.Errorf("step %d groups %v, lower.Lower gives %v", i, g, w)
		}
	}
	return nil
}

// fuzzSystem builds FuzzPlanEquivalence's system: 1–3 levels, one byte of
// counts per level (1–5; a count that would take the system past 64
// devices becomes 1), two bits each of bandwidth and latency class per
// level, and at most one fault. fault&7 picks none, down, bw/10, lat*4 or
// loss=0.05 (mod 5), fault>>3&3 the level and fault>>5 the entity, both
// reduced into range. It returns the system and its device count.
func fuzzSystem(t *testing.T, levels uint8, counts uint32, links, fault uint16) (*p2.System, int) {
	bandwidths := []float64{12.5e9, 50e9, 150e9, 300e9}
	latencies := []float64{5e-6, 2.5e-6, 1e-6, 7e-7}
	L := 1 + int(levels%3)
	lv, up := make([]p2.Level, L), make([]p2.Link, L)
	entities := make([]int, L) // entities at each level
	n := 1
	for l := range lv {
		c := 1 + int(counts>>(8*l)&0xff)%5
		if n*c > 64 {
			c = 1
		}
		n *= c
		entities[l] = n
		class := int(links >> (4 * l))
		lv[l] = p2.Level{Name: fmt.Sprintf("l%d", l), Count: c}
		up[l] = p2.Link{Name: fmt.Sprintf("u%d", l), Bandwidth: bandwidths[class&3], Latency: latencies[class>>2&3]}
	}
	sys, err := p2.NewSystem("fuzz", lv, up)
	if err != nil {
		t.Fatal(err)
	}
	effect := []string{"", "down", "bw/10", "lat*4", "loss=0.05"}[fault&7%5]
	if effect == "" {
		return sys, n
	}
	level := int(fault>>3&3) % L
	spec := fmt.Sprintf("%d:%d:%s", level, int(fault>>5)%entities[level], effect)
	ovs, err := p2.ParseFaults(sys, spec)
	if err != nil {
		t.Fatalf("fault %q: %v", spec, err)
	}
	sys, err = sys.WithOverrides(ovs...)
	if err != nil {
		t.Fatalf("fault %q: %v", spec, err)
	}
	return sys, n
}

// fuzzAxes factors n devices into 1 + sel&3%3 axes: each axis but the
// last is the divisor of what is left that sel's next five bits pick, and
// the last axis takes the rest.
func fuzzAxes(n int, sel uint16) []int {
	axes := make([]int, 1+int(sel&3)%3)
	rest := n
	for i := range axes[:len(axes)-1] {
		var divs []int
		for d := 1; d <= rest; d++ {
			if rest%d == 0 {
				divs = append(divs, d)
			}
		}
		axes[i] = divs[int(sel>>(2+5*i)&0x1f)%len(divs)]
		rest /= axes[i]
	}
	axes[len(axes)-1] = rest
	return axes
}
