// Package verify executes lowered reduction programs on concrete data.
//
// The synthesizer reasons about reductions abstractly (boolean state
// matrices); this package provides the independent ground truth: every
// device gets a real float64 vector, each collective step actually moves
// and adds numbers between per-device buffers, and the final buffers are
// compared against the mathematically expected all-reduce result. A
// program passing Check is correct not just by the Hoare semantics but by
// construction on data.
//
// The executor implements the five collectives with the same chunk
// conventions as the rest of the system: a payload is split into K chunks
// (K = the synthesis-universe size); ReduceScatter hands chunk blocks to
// members in group order; Reduce and Broadcast use the first group member
// as root.
package verify

import (
	"fmt"
	"math"

	"p2/internal/collective"
	"p2/internal/lower"
	"p2/internal/placement"
)

// Machine holds the per-device buffers of a concrete execution.
type Machine struct {
	// K is the chunk granularity; every buffer has K chunks of ChunkLen
	// values.
	K        int
	ChunkLen int
	// bufs[d][c][i] is value i of chunk c on device d.
	bufs [][][]float64
}

// NewMachine creates a machine for n devices with K chunks of chunkLen
// values each, all zero.
func NewMachine(n, k, chunkLen int) *Machine {
	if n <= 0 || k <= 0 || chunkLen <= 0 {
		panic(fmt.Sprintf("verify: NewMachine(%d, %d, %d)", n, k, chunkLen))
	}
	m := &Machine{K: k, ChunkLen: chunkLen, bufs: make([][][]float64, n)}
	for d := range m.bufs {
		m.bufs[d] = make([][]float64, k)
		for c := range m.bufs[d] {
			m.bufs[d][c] = make([]float64, chunkLen)
		}
	}
	return m
}

// Fill initializes device d's payload with fn(chunk, index).
func (m *Machine) Fill(d int, fn func(chunk, i int) float64) {
	for c := range m.bufs[d] {
		for i := range m.bufs[d][c] {
			m.bufs[d][c][i] = fn(c, i)
		}
	}
}

// Value returns value i of chunk c on device d.
func (m *Machine) Value(d, c, i int) float64 { return m.bufs[d][c][i] }

// Step executes one lowered collective step on the machine.
func (m *Machine) Step(st lower.Step) error {
	if st.K != m.K {
		return fmt.Errorf("verify: step chunking %d != machine %d", st.K, m.K)
	}
	for _, g := range st.Groups {
		if err := m.applyGroup(st.Op, g); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) applyGroup(op collective.Op, g []int) error {
	switch op {
	case collective.AllReduce:
		for c := 0; c < m.K; c++ {
			sum := make([]float64, m.ChunkLen)
			for _, d := range g {
				for i, v := range m.bufs[d][c] {
					sum[i] += v
				}
			}
			for _, d := range g {
				copy(m.bufs[d][c], sum)
			}
		}
	case collective.Reduce:
		root := g[0]
		for c := 0; c < m.K; c++ {
			sum := make([]float64, m.ChunkLen)
			for _, d := range g {
				for i, v := range m.bufs[d][c] {
					sum[i] += v
				}
			}
			copy(m.bufs[root][c], sum)
			for _, d := range g[1:] {
				for i := range m.bufs[d][c] {
					m.bufs[d][c][i] = 0
				}
			}
		}
	case collective.Broadcast:
		root := g[0]
		for c := 0; c < m.K; c++ {
			for _, d := range g[1:] {
				copy(m.bufs[d][c], m.bufs[root][c])
			}
		}
	case collective.ReduceScatter:
		// Determine the non-empty chunks (those any member holds); they
		// are summed and scattered in blocks over the group in order.
		held := m.heldChunks(g)
		if len(held)%len(g) != 0 {
			return fmt.Errorf("verify: ReduceScatter of %d chunks over %d devices", len(held), len(g))
		}
		per := len(held) / len(g)
		sums := make([][]float64, len(held))
		for ci, c := range held {
			sums[ci] = make([]float64, m.ChunkLen)
			for _, d := range g {
				for i, v := range m.bufs[d][c] {
					sums[ci][i] += v
				}
			}
		}
		for gi, d := range g {
			for ci, c := range held {
				if ci/per == gi {
					copy(m.bufs[d][c], sums[ci])
				} else {
					for i := range m.bufs[d][c] {
						m.bufs[d][c][i] = 0
					}
				}
			}
		}
	case collective.AllGather:
		// Each chunk is held by (at most) one member; everyone ends with
		// the union.
		for c := 0; c < m.K; c++ {
			var src []float64
			for _, d := range g {
				if !chunkZero(m.bufs[d][c]) {
					if src != nil {
						return fmt.Errorf("verify: AllGather chunk %d held twice", c)
					}
					src = m.bufs[d][c]
				}
			}
			if src == nil {
				continue
			}
			tmp := make([]float64, m.ChunkLen)
			copy(tmp, src)
			for _, d := range g {
				copy(m.bufs[d][c], tmp)
			}
		}
	default:
		return fmt.Errorf("verify: unknown op %v", op)
	}
	return nil
}

// heldChunks returns the chunk indices any group member holds (non-zero).
func (m *Machine) heldChunks(g []int) []int {
	var out []int
	for c := 0; c < m.K; c++ {
		for _, d := range g {
			if !chunkZero(m.bufs[d][c]) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

func chunkZero(xs []float64) bool {
	for _, x := range xs {
		//p2:nan-ok concrete verification data; a NaN element correctly reports the chunk nonzero
		if x != 0 {
			return false
		}
	}
	return true
}

// Run executes all steps of a lowered program.
func (m *Machine) Run(p *lower.Program) error {
	for i, st := range p.Steps {
		if err := m.Step(st); err != nil {
			return fmt.Errorf("verify: step %d: %w", i, err)
		}
	}
	return nil
}

// Check executes the lowered program on concrete data and verifies that it
// implements the requested reduction: after the run, every device holds,
// in every chunk, the exact sum of its reduction group's original values.
//
// Initial data is synthetic but adversarial to aliasing mistakes: device
// d's chunk c value i is (d+1)·1e6 + c·1e3 + i, so every (device, chunk)
// pair contributes a distinguishable quantity.
func Check(p *lower.Program, m *placement.Matrix, reduceAxes []int, chunkLen int) error {
	n := m.NumDevices()
	if p.NumDevices != n {
		return fmt.Errorf("verify: program devices %d != placement devices %d", p.NumDevices, n)
	}
	mach := NewMachine(n, p.K, chunkLen)
	val := func(d, c, i int) float64 {
		return float64(d+1)*1e6 + float64(c)*1e3 + float64(i)
	}
	for d := 0; d < n; d++ {
		d := d
		mach.Fill(d, func(c, i int) float64 { return val(d, c, i) })
	}
	if err := mach.Run(p); err != nil {
		return err
	}
	const tol = 1e-9
	for d := 0; d < n; d++ {
		group := m.ReductionGroup(d, reduceAxes)
		for c := 0; c < p.K; c++ {
			for i := 0; i < chunkLen; i++ {
				want := 0.0
				for _, gd := range group {
					want += val(gd, c, i)
				}
				got := mach.Value(d, c, i)
				if math.Abs(got-want) > tol*math.Abs(want) {
					return fmt.Errorf("verify: device %d chunk %d[%d] = %v, want %v (group %v)",
						d, c, i, got, want, group)
				}
			}
		}
	}
	return nil
}
