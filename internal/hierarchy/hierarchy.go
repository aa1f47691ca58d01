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
//
// One construction serves all four kinds. A device is a sum of per-axis
// offsets (placement.Matrix.Device), so replica r of leaf u is
// leafOff[u] + repOff[r]: the device of the coordinates u's digits spell,
// plus that of replica r's coordinates on the axes that do not address a
// leaf — none for (a)–(c), whose one replica is repOff[0] = 0. The two
// offsets occupy disjoint mixed-radix digits of the device address, so
// their sum carries nowhere: at every hardware level l the level-l entity
// of Device(u, r) is that of leafOff[u] plus that of repOff[r]
// (topology.System.EntityID), and the replicas whose offsets share a
// level-l entity load exactly the same level-l uplinks. The cost model and
// the placement bound count one replica's traffic on that argument.
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
	// Sizes are the level cardinalities, root-most first. Sizes[0] is
	// always the implicit root of size 1 (the paper appends (root, 1)).
	// Interior levels of size 1 are dropped: they cannot change any
	// device grouping and only duplicate instructions.
	Sizes []int
	// Groups[u] is the leaf-space reduction group of leaf u: the leaves
	// whose data must be reduced with it, sorted ascending and including
	// u itself. The leaves of one group share its slice.
	Groups [][]int
	// ReductionLevel[l] reports whether level l consists purely of
	// reduction-axis parallelism factors. The admissibility conditions of
	// Corollary B.4 and Lemmas B.5/B.6 quantify over these flags: an
	// instruction may only vary or cover non-root levels that are on the
	// reduction axes. For KindReductionAxes every level is a reduction
	// level.
	ReductionLevel []bool

	// Leaf u's replica r is device leafOff[u] + repOff[r] (see Device).
	leafOff, repOff []int
	radix           *factor.Radix
}

// K returns the number of leaves (the synthesis universe size).
func (h *Hierarchy) K() int { return len(h.leafOff) }

// Replicas returns how many physical devices each leaf denotes.
func (h *Hierarchy) Replicas() int { return len(h.repOff) }

// Device returns the physical device of replica r of leaf u. Replicas are
// numbered by their non-reduction coordinate combination, and replica 0
// (every such coordinate 0) is Device(u, 0) = the leaf's own offset.
func (h *Hierarchy) Device(u, r int) int { return h.leafOff[u] + h.repOff[r] }

// ReplicaOffsets returns every replica's device offset, by replica index:
// Device(u, r) = Device(u, 0) + ReplicaOffsets()[r], and ReplicaOffsets()[0]
// is 0. The offsets occupy address digits no leaf's does (see the package
// comment). The slice is shared and must not be mutated.
func (h *Hierarchy) ReplicaOffsets() []int { return h.repOff }

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
	// Each group is listed once, at its minimal leaf: the groups partition
	// the leaves, so the list still determines Groups.
	n := len(h.Sizes) + 2*len(h.Groups)
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
	for u, g := range h.Groups {
		if g[0] != u {
			continue
		}
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
	if kind < KindSystem || kind > KindReductionAxes {
		return nil, fmt.Errorf("hierarchy: unknown kind %v", kind)
	}
	return build(kind, m, reduceAxes, opts), nil
}

// MustBuild is Build panicking on error.
func MustBuild(kind Kind, m *placement.Matrix, reduceAxes []int, opts Options) *Hierarchy {
	h, err := Build(kind, m, reduceAxes, opts)
	if err != nil {
		panic(err)
	}
	return h
}

// build constructs every kind the same way. The kind decides which axes
// address a leaf (the reduction axes for (d), every axis otherwise), the
// digit order (level-major for (a), (b) and a collapsed (d), axis-major
// otherwise) and whether a hardware level's factors collapse into one
// level ((a) and a collapsed (d)). A collapsed level packs its axes'
// digits in axis order as Matrix.LevelCoord does, so a leaf index reads
// the same in its expanded digits whether or not levels collapse, and
// dropped unit levels are digit 0 either way.
func build(kind Kind, m *placement.Matrix, reduceAxes []int, opts Options) *Hierarchy {
	isRed := make([]bool, m.NumAxes())
	for _, r := range reduceAxes {
		isRed[r] = true
	}
	addr := reduceAxes
	var freeAxes, freeSizes []int
	if kind == KindReductionAxes {
		for i, p := range m.Axes {
			if !isRed[i] {
				freeAxes = append(freeAxes, i)
				freeSizes = append(freeSizes, p)
			}
		}
	} else {
		addr = make([]int, m.NumAxes())
		for i := range addr {
			addr[i] = i
		}
	}
	collapse := kind == KindSystem || kind == KindReductionAxes && opts.Collapse

	sizes, redLevel := []int{1}, []bool{true}
	// level appends a level unless it is a dropped unit level.
	level := func(size int, reduction bool) {
		if size == 1 && !opts.KeepUnitLevels {
			return
		}
		sizes = append(sizes, size)
		redLevel = append(redLevel, reduction)
	}
	// order lists a leaf address's non-unit digits, most significant
	// first; place is a digit's weight within its axis coordinate.
	type leafDigit struct {
		axis, size, place int
		red               bool
	}
	var order []leafDigit
	digit := func(a, j int) {
		if !collapse {
			level(m.X[a][j], isRed[a])
		}
		if m.X[a][j] > 1 {
			order = append(order, leafDigit{a, m.X[a][j], factor.Product(m.X[a][j+1:]), isRed[a]})
		}
	}
	if collapse || kind == KindColumnBased {
		for j := range m.Hier {
			size, reduction := 1, true
			for _, a := range addr {
				digit(a, j)
				size *= m.X[a][j]
				reduction = reduction && (isRed[a] || m.X[a][j] == 1)
			}
			if collapse {
				level(size, reduction)
			}
		}
	} else {
		for _, a := range addr {
			for j := range m.Hier {
				digit(a, j)
			}
		}
	}
	rad := factor.NewRadix(sizes)
	k := rad.Total()

	// repOff[r] is the device of replica r's coordinates on the axes that
	// do not address a leaf, with every other coordinate 0.
	freeRad := factor.NewRadix(freeSizes)
	repOff := make([]int, freeRad.Total())
	coords := make([]int, m.NumAxes())
	freeDigits := make([]int, freeRad.Len())
	for r := range repOff {
		freeRad.DecodeInto(r, freeDigits)
		for idx, a := range freeAxes {
			coords[a] = freeDigits[idx]
		}
		repOff[r] = m.Device(coords)
	}

	// Leaf u's group is every leaf with its non-reduction digits (key),
	// ascending: u sits at the rank its reduction digits spell. (d) has no
	// non-reduction digit, so its one group is every leaf.
	groupSize := 1
	for _, d := range order {
		if d.red {
			groupSize *= d.size
		}
	}
	leafOff := make([]int, k)
	groups := make([][]int, k)
	members := make([]int, k)
	for u := range leafOff {
		clear(coords)
		rest, key, rank, keyW, rankW := u, 0, 0, 1, 1
		for p := len(order) - 1; p >= 0; p-- {
			d := order[p]
			dv := rest % d.size
			rest /= d.size
			coords[d.axis] += dv * d.place
			if d.red {
				rank += dv * rankW
				rankW *= d.size
			} else {
				key += dv * keyW
				keyW *= d.size
			}
		}
		leafOff[u] = m.Device(coords)
		g := members[key*groupSize : (key+1)*groupSize : (key+1)*groupSize]
		g[rank] = u
		groups[u] = g
	}
	return &Hierarchy{
		Sizes:          sizes,
		Groups:         groups,
		ReductionLevel: redLevel,
		leafOff:        leafOff,
		repOff:         repOff,
		radix:          rad,
	}
}
