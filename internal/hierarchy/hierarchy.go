// Package hierarchy constructs the synthesis hierarchies of §3.4 of the P²
// paper. Given a parallelism matrix and the requested reduction axes, four
// hierarchies can drive the reduction DSL:
//
//	(a) KindSystem        — the raw hardware hierarchy, e.g. [1 2 2 4]
//	(b) KindColumnBased   — parallelism factors expanded column by column
//	(c) KindRowBased      — parallelism factors expanded row by row
//	(d) KindReductionAxes — only the reduction axes' factors (P²'s choice),
//	                        optionally collapsing factors that live on the
//	                        same hardware level (§2.5)
//
// A hierarchy is a list of level sizes plus, per leaf, (1) the physical
// devices that leaf denotes and (2) the leaf-space reduction group. For
// (a)–(c) each leaf is exactly one device; for (d) each leaf stands for one
// device per combination of non-reduction coordinates (its replicas), and
// lowering replicates synthesized groups across replicas.
package hierarchy

import (
	"fmt"
	"strconv"
	"strings"

	"p2/internal/factor"
	"p2/internal/placement"
)

// Kind selects which synthesis hierarchy to build.
type Kind int

const (
	// KindSystem is hierarchy (a): the hardware levels themselves.
	KindSystem Kind = iota
	// KindColumnBased is hierarchy (b): factors ordered column-major.
	KindColumnBased
	// KindRowBased is hierarchy (c): factors ordered row-major.
	KindRowBased
	// KindReductionAxes is hierarchy (d): only the reduction axes' rows,
	// row-major. This is what P² uses.
	KindReductionAxes
)

// Kinds lists all hierarchy kinds in expressiveness order (Theorem 3.2:
// each is at least as expressive as the ones before it).
var Kinds = []Kind{KindSystem, KindColumnBased, KindRowBased, KindReductionAxes}

// String names the kind as in the paper's discussion.
func (k Kind) String() string {
	switch k {
	case KindSystem:
		return "system"
	case KindColumnBased:
		return "column-based"
	case KindRowBased:
		return "row-based"
	case KindReductionAxes:
		return "reduction-axes"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Hierarchy is a synthesis hierarchy ready for the reduction DSL.
type Hierarchy struct {
	Kind Kind
	// Sizes are the level cardinalities, root-most first. Sizes[0] is
	// always the implicit root of size 1 (the paper appends (root, 1)).
	// Interior levels of size 1 are dropped: they cannot change any
	// device grouping and only duplicate instructions.
	Sizes []int
	// Names label each level for diagnostics, aligned with Sizes.
	Names []string
	// Leaves[u] lists the physical devices leaf u denotes, ordered by the
	// non-reduction coordinate combination (the replica index). All
	// leaves have the same replica count.
	Leaves [][]int
	// Groups[u] is the leaf-space reduction group of leaf u: the leaves
	// whose data must be reduced with it, sorted ascending and including
	// u itself.
	Groups [][]int
	// ReductionLevel[l] reports whether level l consists purely of
	// reduction-axis parallelism factors. The admissibility conditions of
	// Corollary B.4 and Lemmas B.5/B.6 quantify over these flags: an
	// instruction may only vary or cover non-root levels that are on the
	// reduction axes. For KindReductionAxes every level is a reduction
	// level.
	ReductionLevel []bool

	radix *factor.Radix
}

// K returns the number of leaves (the synthesis universe size).
func (h *Hierarchy) K() int { return len(h.Leaves) }

// Replicas returns how many physical devices each leaf denotes.
func (h *Hierarchy) Replicas() int { return len(h.Leaves[0]) }

// NumLevels returns the number of hierarchy levels including the root.
func (h *Hierarchy) NumLevels() int { return len(h.Sizes) }

// Radix exposes the leaf-address codec.
func (h *Hierarchy) Radix() *factor.Radix { return h.radix }

// String renders the hierarchy sizes like "[1 2 1 2]" (root omitted, as in
// the paper's presentation).
func (h *Hierarchy) String() string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for _, s := range h.Sizes[1:] {
		if !first {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", s)
		first = false
	}
	b.WriteByte(']')
	return b.String()
}

// Signature returns a canonical fingerprint of everything program
// synthesis depends on: the level sizes, which levels are reduction
// levels, and the leaf-space reduction groups. Candidate enumeration
// (Instruction.Validate/Admissible/Groups), the Hoare semantics and the
// target states are all functions of exactly these three, so two
// hierarchies with equal signatures admit the same synthesized program
// set and a planner may synthesize once per signature and reuse the
// result across placements. The physical leaves are deliberately
// excluded: placements that lower differently still share a signature
// whenever their reduction structure coincides.
func (h *Hierarchy) Signature() string {
	// One buffer, strconv appends: this runs once per placement on the
	// planner's memo-hit path, where fmt per number cost as much as Build.
	n := len(h.Sizes)
	for _, g := range h.Groups {
		n += len(g) + 1
	}
	b := make([]byte, 0, 16+3*n)
	b = append(b, "s:"...)
	for i, s := range h.Sizes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	b = append(b, "|r:"...)
	for _, r := range h.ReductionLevel {
		if r {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	b = append(b, "|g:"...)
	for _, g := range h.Groups {
		for i, u := range g {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(u), 10)
		}
		b = append(b, ';')
	}
	return string(b)
}

// Options configure hierarchy construction.
type Options struct {
	// Collapse merges reduction-axis factors that belong to the same
	// hardware level into a single level (the [7 16 27] optimization of
	// §2.5). Only meaningful for KindReductionAxes.
	Collapse bool
	// KeepUnitLevels retains interior levels of size 1 instead of
	// dropping them. Useful for ablation studies of the search space.
	KeepUnitLevels bool
}

// Build constructs the synthesis hierarchy of the given kind for matrix m
// and reduction axes reduceAxes (indices into m.Axes, ascending).
func Build(kind Kind, m *placement.Matrix, reduceAxes []int, opts Options) (*Hierarchy, error) {
	if len(reduceAxes) == 0 {
		return nil, fmt.Errorf("hierarchy: no reduction axes")
	}
	seen := map[int]bool{}
	for _, r := range reduceAxes {
		if r < 0 || r >= m.NumAxes() {
			return nil, fmt.Errorf("hierarchy: reduction axis %d out of range", r)
		}
		if seen[r] {
			return nil, fmt.Errorf("hierarchy: duplicate reduction axis %d", r)
		}
		seen[r] = true
	}
	switch kind {
	case KindSystem, KindColumnBased, KindRowBased:
		return buildFull(kind, m, reduceAxes, opts)
	case KindReductionAxes:
		return buildReduction(m, reduceAxes, opts)
	default:
		return nil, fmt.Errorf("hierarchy: unknown kind %v", kind)
	}
}

// MustBuild is Build panicking on error.
func MustBuild(kind Kind, m *placement.Matrix, reduceAxes []int, opts Options) *Hierarchy {
	h, err := Build(kind, m, reduceAxes, opts)
	if err != nil {
		panic(err)
	}
	return h
}

// levelRef identifies one hierarchy position in terms of the matrix.
type levelRef struct {
	axis      int // -1 for a raw hardware level (kind (a))
	level     int
	size      int
	name      string
	reduction bool
}

func buildFull(kind Kind, m *placement.Matrix, reduceAxes []int, opts Options) (*Hierarchy, error) {
	isRed := make([]bool, m.NumAxes())
	for _, r := range reduceAxes {
		isRed[r] = true
	}
	// A raw hardware level is a reduction level when every non-reduction
	// factor in its column is 1.
	levelIsRed := func(j int) bool {
		for i := 0; i < m.NumAxes(); i++ {
			if !isRed[i] && m.X[i][j] != 1 {
				return false
			}
		}
		return true
	}
	var refs []levelRef
	switch kind {
	case KindSystem:
		for j := 0; j < m.NumLevels(); j++ {
			refs = append(refs, levelRef{axis: -1, level: j, size: m.Hier[j],
				name: fmt.Sprintf("h%d", j), reduction: levelIsRed(j)})
		}
	case KindColumnBased:
		for j := 0; j < m.NumLevels(); j++ {
			for i := 0; i < m.NumAxes(); i++ {
				refs = append(refs, levelRef{axis: i, level: j, size: m.X[i][j],
					name: fmt.Sprintf("x%d,%d", i, j), reduction: isRed[i]})
			}
		}
	case KindRowBased:
		for i := 0; i < m.NumAxes(); i++ {
			for j := 0; j < m.NumLevels(); j++ {
				refs = append(refs, levelRef{axis: i, level: j, size: m.X[i][j],
					name: fmt.Sprintf("x%d,%d", i, j), reduction: isRed[i]})
			}
		}
	default:
		// Build routes KindReductionAxes to buildReduction; any kind landing
		// here would otherwise build an empty hierarchy silently.
		return nil, fmt.Errorf("hierarchy: buildFull cannot handle kind %v", kind)
	}
	kept := keepRefs(refs, opts)
	sizes := refSizes(kept)
	rad := factor.NewRadix(sizes)

	n := m.NumDevices()
	// leafOf maps each physical device to its leaf index under this
	// hierarchy's digit ordering.
	leaves := make([][]int, n)
	leafOf := make([]int, n)
	digits := make([]int, len(kept))
	for dev := 0; dev < n; dev++ {
		for p, ref := range kept[1:] { // skip root digit (always 0)
			if ref.axis < 0 {
				digits[p+1] = m.LevelCoord(dev, ref.level)
			} else {
				digits[p+1] = m.FactorDigit(dev, ref.axis, ref.level)
			}
		}
		digits[0] = 0
		u := rad.Encode(digits)
		leafOf[dev] = u
		leaves[u] = []int{dev}
	}
	// Leaf-space reduction groups via the matrix's device groups.
	groups := make([][]int, n)
	for dev := 0; dev < n; dev++ {
		phys := m.ReductionGroup(dev, reduceAxes)
		g := make([]int, len(phys))
		for i, pd := range phys {
			g[i] = leafOf[pd]
		}
		groups[leafOf[dev]] = sortedInts(g)
	}
	return &Hierarchy{
		Kind:           kind,
		Sizes:          sizes,
		Names:          refNames(kept),
		Leaves:         leaves,
		Groups:         groups,
		ReductionLevel: refReduction(kept),
		radix:          rad,
	}, nil
}

func buildReduction(m *placement.Matrix, reduceAxes []int, opts Options) (*Hierarchy, error) {
	var refs []levelRef
	if opts.Collapse {
		// One level per hardware level: the product of the reduction
		// axes' factors there (e.g. [1 2 3; 7 8 9] on axes {0,1} gives
		// [7 16 27] as in §2.5).
		for j := 0; j < m.NumLevels(); j++ {
			size := 1
			for _, r := range reduceAxes {
				size *= m.X[r][j]
			}
			refs = append(refs, levelRef{axis: -2, level: j, size: size,
				name: fmt.Sprintf("c%d", j), reduction: true})
		}
	} else {
		for _, r := range reduceAxes {
			for j := 0; j < m.NumLevels(); j++ {
				refs = append(refs, levelRef{axis: r, level: j, size: m.X[r][j],
					name: fmt.Sprintf("x%d,%d", r, j), reduction: true})
			}
		}
	}
	kept := keepRefs(refs, opts)
	sizes := refSizes(kept)
	rad := factor.NewRadix(sizes)
	k := rad.Total()

	// A device is the sum of per-axis offsets (placement.Matrix.Device),
	// so replica v of leaf u is redOff[u] + freeOff[v]: the device of u's
	// reduction coordinates with every free coordinate 0, plus that of
	// replica v's free coordinates — all combinations of the non-reduction
	// axes — with every reduction coordinate 0.
	isRed := make([]bool, m.NumAxes())
	for _, r := range reduceAxes {
		isRed[r] = true
	}
	var freeAxes, freeSizes []int
	for i := 0; i < m.NumAxes(); i++ {
		if !isRed[i] {
			freeAxes = append(freeAxes, i)
			freeSizes = append(freeSizes, m.Axes[i])
		}
	}
	freeRad := factor.NewRadix(freeSizes)
	freeOff := make([]int, freeRad.Total())
	freeCoords := make([]int, m.NumAxes())
	freeDigits := make([]int, freeRad.Len())
	for v := range freeOff {
		freeRad.DecodeInto(v, freeDigits)
		for idx, a := range freeAxes {
			freeCoords[a] = freeDigits[idx]
		}
		freeOff[v] = m.Device(freeCoords)
	}

	// A leaf address has one digit per (reduction axis, level) factor,
	// axis-major — or level-major when collapsed, a collapsed level
	// packing its axes row-major; dropped unit levels are digit 0 either
	// way. place is the digit's weight within its axis coordinate.
	type leafDigit struct{ axis, size, place int }
	var order []leafDigit
	add := func(r, j int) {
		place := factor.Product(m.X[r][j+1:])
		order = append(order, leafDigit{r, m.X[r][j], place})
	}
	if opts.Collapse {
		for j := range m.Hier {
			for _, r := range reduceAxes {
				add(r, j)
			}
		}
	} else {
		for _, r := range reduceAxes {
			for j := range m.Hier {
				add(r, j)
			}
		}
	}

	leaves := make([][]int, k)
	backing := make([]int, k*len(freeOff))
	redCoords := make([]int, m.NumAxes())
	for u := range leaves {
		for _, r := range reduceAxes {
			redCoords[r] = 0
		}
		rest := u
		for p := len(order) - 1; p >= 0; p-- {
			d := order[p]
			redCoords[d.axis] += rest % d.size * d.place
			rest /= d.size
		}
		redOff := m.Device(redCoords)
		reps := backing[u*len(freeOff) : (u+1)*len(freeOff) : (u+1)*len(freeOff)]
		for v, f := range freeOff {
			reps[v] = redOff + f
		}
		leaves[u] = reps
	}

	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	groups := make([][]int, k)
	for u := range groups {
		groups[u] = all
	}
	return &Hierarchy{
		Kind:           KindReductionAxes,
		Sizes:          sizes,
		Names:          refNames(kept),
		Leaves:         leaves,
		Groups:         groups,
		ReductionLevel: refReduction(kept),
		radix:          rad,
	}, nil
}

// keepRefs prepends the root and drops interior unit levels unless asked
// to keep them.
func keepRefs(refs []levelRef, opts Options) []levelRef {
	out := []levelRef{{axis: -3, level: -1, size: 1, name: "root", reduction: true}}
	for _, r := range refs {
		if r.size == 1 && !opts.KeepUnitLevels {
			continue
		}
		out = append(out, r)
	}
	return out
}

func refSizes(refs []levelRef) []int {
	out := make([]int, len(refs))
	for i, r := range refs {
		out[i] = r.size
	}
	return out
}

func refReduction(refs []levelRef) []bool {
	out := make([]bool, len(refs))
	for i, r := range refs {
		out[i] = r.reduction
	}
	return out
}

func refNames(refs []levelRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.name
	}
	return out
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
