// Package placement implements parallelism placement synthesis (§3.1 of the
// P² paper): enumerating parallelism matrices and interpreting a matrix as
// a bijection between physical devices and parallelism-axis coordinates.
//
// A parallelism matrix X has one row per parallelism axis and one column
// per hardware level. Entry x[i][j] is the parallelism factor: the number
// of level-j entities a level-(j-1) entity splits axis i across. The
// constraints (paper Eq. 1 and 2) are
//
//	∏_i x[i][j] = h[j]   (column products match the hierarchy)
//	∏_j x[i][j] = p[i]   (row products match the axis sizes)
package placement

import (
	"fmt"
	"strings"

	"p2/internal/factor"
)

// Matrix is a parallelism matrix together with the hierarchy and axes it
// was synthesized for.
type Matrix struct {
	// Hier is the hardware hierarchy [h0 ... hn] (root-most first).
	Hier []int
	// Axes are the parallelism axis sizes [p0 ... pm].
	Axes []int
	// X[i][j] is the parallelism factor of axis i at hardware level j.
	X [][]int

	// devRadix encodes the fully expanded physical address: for each
	// hardware level j the digits (y[0][j] ... y[m][j]) in axis order —
	// i.e. the column-based expansion (hierarchy (b) of §3.4). Level j's
	// digits form one block whose value is LevelCoord(dev, j), so the
	// expanded address is the device id of a system with hierarchy Hier.
	devRadix *factor.Radix
	// axisOff[i][a] is the device-id contribution of coordinate a on axis
	// i: a's per-level digits (y[i][0] ... y[i][n], one row of the matrix)
	// at their expanded-address weights. A device is linear in its axis
	// coordinates, so Device sums one entry per axis.
	axisOff [][]int
}

// NewMatrix validates and finalizes a matrix. The entries of x are copied.
func NewMatrix(hier, axes []int, x [][]int) (*Matrix, error) {
	m := &Matrix{
		Hier: append([]int(nil), hier...),
		Axes: append([]int(nil), axes...),
		X:    make([][]int, len(x)),
	}
	for i := range x {
		m.X[i] = append([]int(nil), x[i]...)
	}
	if err := m.init(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustMatrix is NewMatrix panicking on error.
func MustMatrix(hier, axes []int, x [][]int) *Matrix {
	m, err := NewMatrix(hier, axes, x)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *Matrix) init() error {
	if len(m.Axes) == 0 || len(m.Hier) == 0 {
		return fmt.Errorf("placement: empty axes or hierarchy")
	}
	if len(m.X) != len(m.Axes) {
		return fmt.Errorf("placement: %d rows for %d axes", len(m.X), len(m.Axes))
	}
	for i, row := range m.X {
		if len(row) != len(m.Hier) {
			return fmt.Errorf("placement: row %d has %d entries for %d levels", i, len(row), len(m.Hier))
		}
		if got := factor.Product(row); got != m.Axes[i] {
			return fmt.Errorf("placement: row %d product %d != axis size %d", i, got, m.Axes[i])
		}
		for j, v := range row {
			if v <= 0 {
				return fmt.Errorf("placement: non-positive factor %d at (%d,%d)", v, i, j)
			}
		}
	}
	for j := range m.Hier {
		col := 1
		for i := range m.X {
			col *= m.X[i][j]
		}
		if col != m.Hier[j] {
			return fmt.Errorf("placement: column %d product %d != level size %d", j, col, m.Hier[j])
		}
	}
	// Fully expanded physical radix: level-major, axis within level.
	sizes := make([]int, 0, len(m.Hier)*len(m.Axes))
	for j := range m.Hier {
		for i := range m.Axes {
			sizes = append(sizes, m.X[i][j])
		}
	}
	m.devRadix = factor.NewRadix(sizes)
	// Offset tables, all axes in one backing array: decode each axis
	// coordinate by its row's radix, least significant level first, and
	// place every digit at its expanded-address weight.
	total := 0
	for _, p := range m.Axes {
		total += p
	}
	off := make([]int, total)
	m.axisOff = make([][]int, len(m.Axes))
	for i, p := range m.Axes {
		m.axisOff[i], off = off[:p:p], off[p:]
		for a := range m.axisOff[i] {
			rest := a
			for j := len(m.Hier) - 1; j >= 0; j-- {
				m.axisOff[i][a] += rest % m.X[i][j] * m.devRadix.Weight(m.digitPos(i, j))
				rest /= m.X[i][j]
			}
		}
	}
	return nil
}

// NumAxes returns the number of parallelism axes (rows).
func (m *Matrix) NumAxes() int { return len(m.Axes) }

// NumDevices returns the total device count (= product of the hierarchy =
// product of the axes).
func (m *Matrix) NumDevices() int { return m.devRadix.Total() }

// digitPos is the expanded-digit position of (axis i, level j).
func (m *Matrix) digitPos(i, j int) int { return j*len(m.Axes) + i }

// AxisCoord returns the axis-i coordinate of physical device dev: the
// mixed-radix combination of dev's per-level digits belonging to row i.
func (m *Matrix) AxisCoord(dev, i int) int {
	v := 0
	for j := range m.Hier {
		v = v*m.X[i][j] + m.devRadix.Digit(dev, m.digitPos(i, j))
	}
	return v
}

// AxisCoords returns all axis coordinates of dev.
func (m *Matrix) AxisCoords(dev int) []int {
	out := make([]int, len(m.Axes))
	for i := range m.Axes {
		out[i] = m.AxisCoord(dev, i)
	}
	return out
}

// Device returns the physical device holding the given axis coordinates:
// the sum of their per-axis offsets. It is the inverse of AxisCoords and
// panics on a coordinate outside its axis.
func (m *Matrix) Device(axisCoords []int) int {
	if len(axisCoords) != len(m.Axes) {
		panic(fmt.Sprintf("placement: %d axis coords for %d axes", len(axisCoords), len(m.Axes)))
	}
	dev := 0
	for i, a := range axisCoords {
		dev += m.axisOff[i][a]
	}
	return dev
}

// LevelCoord returns dev's hardware coordinate at level j (in [0, h[j])),
// combining the level's per-axis digits in axis order.
func (m *Matrix) LevelCoord(dev, j int) int {
	v := 0
	for i := range m.Axes {
		v = v*m.X[i][j] + m.devRadix.Digit(dev, m.digitPos(i, j))
	}
	return v
}

// ReductionGroup returns the devices that must be reduced with dev for the
// given reduction axes: all devices sharing dev's coordinates on every
// non-reduction axis. The result is sorted by the varying axes' coordinates
// (row-major over reduceAxes) and always includes dev.
func (m *Matrix) ReductionGroup(dev int, reduceAxes []int) []int {
	isRed := make([]bool, len(m.Axes))
	for _, r := range reduceAxes {
		isRed[r] = true
	}
	coords := m.AxisCoords(dev)
	sizes := make([]int, 0, len(reduceAxes))
	for _, r := range reduceAxes {
		sizes = append(sizes, m.Axes[r])
	}
	rad := factor.NewRadix(sizes)
	out := make([]int, 0, rad.Total())
	cur := append([]int(nil), coords...)
	digits := make([]int, rad.Len())
	for v := 0; v < rad.Total(); v++ {
		rad.DecodeInto(v, digits)
		for k, r := range reduceAxes {
			cur[r] = digits[k]
		}
		out = append(out, m.Device(cur))
	}
	return out
}

// ReductionGroups returns every reduction group for the given axes, one per
// combination of non-reduction coordinates, in canonical order.
func (m *Matrix) ReductionGroups(reduceAxes []int) [][]int {
	isRed := make([]bool, len(m.Axes))
	for _, r := range reduceAxes {
		isRed[r] = true
	}
	var freeSizes []int
	var freeAxes []int
	for i, p := range m.Axes {
		if !isRed[i] {
			freeSizes = append(freeSizes, p)
			freeAxes = append(freeAxes, i)
		}
	}
	freeRad := factor.NewRadix(freeSizes)
	groups := make([][]int, 0, freeRad.Total())
	coords := make([]int, len(m.Axes))
	digits := make([]int, freeRad.Len())
	for v := 0; v < freeRad.Total(); v++ {
		freeRad.DecodeInto(v, digits)
		for k, i := range freeAxes {
			coords[i] = digits[k]
		}
		for _, r := range reduceAxes {
			coords[r] = 0
		}
		groups = append(groups, m.ReductionGroup(m.Device(coords), reduceAxes))
	}
	return groups
}

// String renders the matrix in the paper's compact form, e.g.
// "[[1 4] [4 4]]".
func (m *Matrix) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, row := range m.X {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('[')
		for j, v := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(']')
	}
	b.WriteByte(']')
	return b.String()
}

// Equal reports whether two matrices have identical shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if len(m.X) != len(o.X) || len(m.Hier) != len(o.Hier) {
		return false
	}
	for j := range m.Hier {
		if m.Hier[j] != o.Hier[j] {
			return false
		}
	}
	for i := range m.X {
		for j := range m.X[i] {
			if m.X[i][j] != o.X[i][j] {
				return false
			}
		}
	}
	return true
}
