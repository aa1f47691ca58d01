package xla

import (
	"fmt"
	"strconv"
	"strings"

	"p2/internal/collective"
)

// The parser reads exactly the subset Emit writes back into structured
// form; the round-trip tests check Emit against it.

// Instruction is one collective of an emitted module.
type Instruction struct {
	// Name is the SSA name, e.g. "t0".
	Name string
	// Op is the collective performed.
	Op collective.Op
	// Elems is the per-replica f32 element count of the result shape.
	Elems int
	// Groups are the replica groups.
	Groups [][]int
	// Operand is the SSA name of the input.
	Operand string
}

// Module is a parsed or emitted reduction module.
type Module struct {
	// Name is the module name.
	Name string
	// ParamElems is the entry parameter's element count.
	ParamElems int
	// Instructions are the collectives in execution order.
	Instructions []Instruction
}

// Parse reads a module emitted by Emit back into structured form.
func Parse(src string) (*Module, error) {
	mod := &Module{}
	lines := strings.Split(src, "\n")
	inEntry := false
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "HloModule "):
			mod.Name = strings.TrimSpace(strings.TrimPrefix(line, "HloModule"))
		case strings.HasPrefix(line, "ENTRY "):
			inEntry = true
		case line == "}":
			inEntry = false
		case inEntry && strings.Contains(line, "parameter(0)"):
			elems, err := shapeElems(line)
			if err != nil {
				return nil, fmt.Errorf("xla: line %d: %w", ln+1, err)
			}
			mod.ParamElems = elems
		case inEntry && strings.Contains(line, "replica_groups="):
			inst, err := parseCollective(line)
			if err != nil {
				return nil, fmt.Errorf("xla: line %d: %w", ln+1, err)
			}
			mod.Instructions = append(mod.Instructions, inst)
		}
	}
	if mod.Name == "" {
		return nil, fmt.Errorf("xla: missing HloModule header")
	}
	if mod.ParamElems == 0 {
		return nil, fmt.Errorf("xla: missing entry parameter")
	}
	return mod, nil
}

func shapeElems(line string) (int, error) {
	start := strings.Index(line, "f32[")
	if start < 0 {
		return 0, fmt.Errorf("no f32 shape in %q", line)
	}
	rest := line[start+len("f32["):]
	end := strings.IndexByte(rest, ']')
	if end < 0 {
		return 0, fmt.Errorf("unterminated shape in %q", line)
	}
	return strconv.Atoi(rest[:end])
}

func parseCollective(line string) (Instruction, error) {
	var inst Instruction
	eq := strings.Index(line, " = ")
	if eq < 0 {
		return inst, fmt.Errorf("no assignment in %q", line)
	}
	inst.Name = strings.TrimSpace(line[:eq])
	elems, err := shapeElems(line[eq:])
	if err != nil {
		return inst, err
	}
	inst.Elems = elems

	// Mnemonic and operand: "<shape> <mnemonic>(<operand>),".
	body := line[eq+3:]
	shapeEnd := strings.IndexByte(body, ']')
	rest := strings.TrimSpace(body[shapeEnd+1:])
	paren := strings.IndexByte(rest, '(')
	if paren < 0 {
		return inst, fmt.Errorf("no operand in %q", line)
	}
	mnemonic := rest[:paren]
	closeParen := strings.IndexByte(rest, ')')
	if closeParen < 0 {
		return inst, fmt.Errorf("unterminated operand in %q", line)
	}
	inst.Operand = rest[paren+1 : closeParen]

	switch mnemonic {
	case "all-reduce":
		inst.Op = collective.AllReduce
	case "reduce-scatter":
		inst.Op = collective.ReduceScatter
	case "all-gather":
		inst.Op = collective.AllGather
	case "custom-call":
		switch {
		case strings.Contains(line, `custom_call_target="p2.reduce"`):
			inst.Op = collective.Reduce
		case strings.Contains(line, `custom_call_target="p2.broadcast"`):
			inst.Op = collective.Broadcast
		default:
			return inst, fmt.Errorf("unknown custom-call in %q", line)
		}
	default:
		return inst, fmt.Errorf("unknown collective %q", mnemonic)
	}

	groups, err := parseGroups(line)
	if err != nil {
		return inst, err
	}
	inst.Groups = groups
	return inst, nil
}

func parseGroups(line string) ([][]int, error) {
	start := strings.Index(line, "replica_groups={")
	if start < 0 {
		return nil, fmt.Errorf("no replica_groups in %q", line)
	}
	rest := line[start+len("replica_groups={"):]
	var groups [][]int
	for {
		open := strings.IndexByte(rest, '{')
		closing := strings.IndexByte(rest, '}')
		if closing >= 0 && (open < 0 || closing < open) {
			// End of the outer group list.
			break
		}
		if open < 0 {
			return nil, fmt.Errorf("unterminated replica_groups in %q", line)
		}
		end := strings.IndexByte(rest[open:], '}')
		if end < 0 {
			return nil, fmt.Errorf("unterminated group in %q", line)
		}
		var g []int
		for _, f := range strings.Split(rest[open+1:open+end], ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad replica id in %q: %w", line, err)
			}
			g = append(g, v)
		}
		groups = append(groups, g)
		rest = rest[open+end+1:]
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("empty replica_groups in %q", line)
	}
	return groups, nil
}
