// Package xla renders lowered reduction programs as XLA-HLO-style module
// text, mirroring how the paper's implementation emits its synthesized
// strategies as sequences of XLA collective operations (which XLA's GPU
// backend turns into NCCL calls).
//
// The emitted dialect is a faithful, self-contained subset of HLO:
//
//	HloModule p2_reduction
//
//	add {
//	  x = f32[] parameter(0)
//	  y = f32[] parameter(1)
//	  ROOT sum = f32[] add(x, y)
//	}
//
//	ENTRY reduction {
//	  p = f32[4096] parameter(0)
//	  t0 = f32[2048] reduce-scatter(p), replica_groups={{0,1},{2,3}}, to_apply=add
//	  ...
//	}
//
// AllReduce, ReduceScatter and AllGather map onto their native HLO
// collectives; Reduce and Broadcast (which HLO lacks as cross-replica
// primitives) are emitted as custom-calls with the same replica_groups
// attribute.
package xla

import (
	"fmt"
	"strconv"
	"strings"

	"p2/internal/collective"
	"p2/internal/lower"
)

// opName maps collectives to HLO mnemonics.
func opName(op collective.Op) (mnemonic string, custom bool) {
	switch op {
	case collective.AllReduce:
		return "all-reduce", false
	case collective.ReduceScatter:
		return "reduce-scatter", false
	case collective.AllGather:
		return "all-gather", false
	case collective.Reduce:
		return "custom-call", true
	case collective.Broadcast:
		return "custom-call", true
	default:
		panic(fmt.Sprintf("xla: unknown op %v", op))
	}
}

func customTarget(op collective.Op) string {
	switch op {
	case collective.Reduce:
		return "p2.reduce"
	case collective.Broadcast:
		return "p2.broadcast"
	default:
		panic(fmt.Sprintf("xla: op %v has no custom-call target", op))
	}
}

// Emit renders a lowered program over a per-device payload of `elems` f32
// values. elems must be divisible by the program's chunk count.
func Emit(p *lower.Program, elems int) (string, error) {
	if elems <= 0 || elems%p.K != 0 {
		return "", fmt.Errorf("xla: payload of %d elems not divisible into %d chunks", elems, p.K)
	}
	var b strings.Builder
	b.WriteString("HloModule p2_reduction\n\n")
	b.WriteString("add {\n")
	b.WriteString("  x = f32[] parameter(0)\n")
	b.WriteString("  y = f32[] parameter(1)\n")
	b.WriteString("  ROOT sum = f32[] add(x, y)\n")
	b.WriteString("}\n\n")
	b.WriteString("ENTRY reduction {\n")
	fmt.Fprintf(&b, "  p = f32[%d] parameter(0)\n", elems)
	operand := "p"
	chunk := elems / p.K
	for i, st := range p.Steps {
		outElems := st.RowsOut * chunk
		name := fmt.Sprintf("t%d", i)
		mnemonic, custom := opName(st.Op)
		fmt.Fprintf(&b, "  %s = f32[%d] %s(%s), replica_groups=%s",
			name, outElems, mnemonic, operand, formatGroups(st.Groups))
		if custom {
			fmt.Fprintf(&b, ", custom_call_target=\"%s\"", customTarget(st.Op))
		} else {
			b.WriteString(", to_apply=add")
		}
		b.WriteByte('\n')
		operand = name
	}
	fmt.Fprintf(&b, "  ROOT out = f32[%d] copy(%s)\n", elems, operand)
	b.WriteString("}\n")
	return b.String(), nil
}

func formatGroups(groups [][]int) string {
	var b strings.Builder
	b.WriteByte('{')
	for gi, g := range groups {
		if gi > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('{')
		for i, d := range g {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(d))
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.String()
}
