package placement

import (
	"fmt"
	"math/big"

	"p2/internal/factor"
)

// Iterate streams every parallelism matrix for the given hierarchy and
// axes to yield, in the same canonical order Enumerate returns them
// (lexicographic over the column-major factor sequence). Matrices are
// produced one at a time as the enumeration DFS reaches them, so a
// consumer that stops early — yield returning false aborts the walk —
// or one that feeds a worker pool never holds the whole placement set in
// memory. It returns an error if the axis product does not equal the
// device count, in which case no placement exists.
func Iterate(hier, axes []int, yield func(*Matrix) bool) error {
	if factor.Product(hier) != factor.Product(axes) {
		return fmt.Errorf("placement: axes product %d != device count %d",
			factor.Product(axes), factor.Product(hier))
	}
	m, n := len(axes), len(hier)
	if m == 0 || n == 0 {
		return fmt.Errorf("placement: empty axes or hierarchy")
	}

	// DFS column by column. rem[i] is the part of axis i not yet assigned
	// to any column; a column assignment (f[0..m-1]) with ∏f = h[j] is
	// feasible only if f[i] divides rem[i].
	rem := append([]int(nil), axes...)
	cols := make([][]int, n) // cols[j] = chosen factors for column j

	// Precompute the suffix products of the hierarchy for pruning: after
	// assigning columns [0..j), axis i must satisfy rem[i] | suffix[j]
	// (it has to fit in the remaining levels).
	suffix := make([]int, n+1)
	suffix[n] = 1
	for j := n - 1; j >= 0; j-- {
		suffix[j] = suffix[j+1] * hier[j]
	}

	var colChoices func(j int) [][]int
	colChoices = func(j int) [][]int {
		return factor.OrderedFactorizations(hier[j], m)
	}

	var rec func(j int) bool
	rec = func(j int) bool {
		if j == n {
			for i := range rem {
				if rem[i] != 1 {
					return true
				}
			}
			x := make([][]int, m)
			for i := 0; i < m; i++ {
				x[i] = make([]int, n)
				for jj := 0; jj < n; jj++ {
					x[i][jj] = cols[jj][i]
				}
			}
			mat, err := NewMatrix(hier, axes, x)
			if err != nil {
				panic(err) // construction invariant violated
			}
			return yield(mat)
		}
		for _, f := range colChoices(j) {
			ok := true
			for i := 0; i < m; i++ {
				if rem[i]%f[i] != 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for i := 0; i < m; i++ {
				rem[i] /= f[i]
			}
			feasible := true
			for i := 0; i < m; i++ {
				if suffix[j+1]%rem[i] != 0 {
					feasible = false
					break
				}
			}
			more := true
			if feasible {
				cols[j] = f
				more = rec(j + 1)
			}
			for i := 0; i < m; i++ {
				rem[i] *= f[i]
			}
			if !more {
				return false
			}
		}
		return true
	}
	rec(0)
	return nil
}

// Enumerate returns every parallelism matrix for the given hierarchy and
// axes, in a canonical order (lexicographic over the column-major factor
// sequence). It materializes the full set; use Iterate to stream matrices
// instead. It returns an error if the axis product does not equal the
// device count, in which case no placement exists.
func Enumerate(hier, axes []int) ([]*Matrix, error) {
	var out []*Matrix
	if err := Iterate(hier, axes, func(m *Matrix) bool {
		out = append(out, m)
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// NaivePlacementCount returns the number of arbitrary device assignments
// the naive search space contains: (∏ axes)! — the quantity the paper
// contrasts against (e.g. (4·4)! > 2^44 for Fig. 2). The result is exact.
func NaivePlacementCount(axes []int) *big.Int {
	n := factor.Product(axes)
	return new(big.Int).MulRange(1, int64(n))
}
