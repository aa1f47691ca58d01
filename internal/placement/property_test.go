package placement

import (
	"testing"

	"p2/internal/factor"
)

// bruteForceMatrices enumerates all integer matrices with the required row
// and column products directly (no pruning), as an independent oracle for
// Enumerate.
func bruteForceMatrices(hier, axes []int) int {
	m, n := len(axes), len(hier)
	// Enumerate every cell over the divisors of the max axis size and
	// filter. Exponential — keep inputs small.
	cells := m * n
	limits := make([][]int, cells)
	for i := range limits {
		limits[i] = factor.Divisors(axes[i/n])
	}
	count := 0
	cur := make([]int, cells)
	var rec func(i int)
	rec = func(i int) {
		if i == cells {
			for r := 0; r < m; r++ {
				p := 1
				for c := 0; c < n; c++ {
					p *= cur[r*n+c]
				}
				if p != axes[r] {
					return
				}
			}
			for c := 0; c < n; c++ {
				p := 1
				for r := 0; r < m; r++ {
					p *= cur[r*n+c]
				}
				if p != hier[c] {
					return
				}
			}
			count++
			return
		}
		for _, d := range limits[i] {
			cur[i] = d
			rec(i + 1)
		}
	}
	rec(0)
	return count
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	cases := []struct{ hier, axes []int }{
		{[]int{2, 2}, []int{2, 2}},
		{[]int{2, 4}, []int{4, 2}},
		{[]int{2, 4}, []int{2, 2, 2}},
		{[]int{4, 4}, []int{4, 4}},
		{[]int{2, 2, 4}, []int{4, 4}},
		{[]int{4, 8}, []int{8, 4}},
		{[]int{2, 8}, []int{16}},
		{[]int{3, 6}, []int{2, 9}},
		{[]int{6, 6}, []int{4, 9}},
	}
	for _, c := range cases {
		ms, err := Enumerate(c.hier, c.axes)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceMatrices(c.hier, c.axes)
		if len(ms) != want {
			t.Errorf("Enumerate(%v, %v) = %d matrices, brute force = %d",
				c.hier, c.axes, len(ms), want)
		}
	}
}

func TestEnumerateNonPowerOfTwo(t *testing.T) {
	// Factorizations with primes other than 2 must work throughout.
	ms, err := Enumerate([]int{3, 6}, []int{2, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matrices for [3 6] × [2 9]")
	}
	for _, m := range ms {
		for dev := 0; dev < m.NumDevices(); dev++ {
			if back := m.Device(m.AxisCoords(dev)); back != dev {
				t.Fatalf("%v: bijection broken at %d", m, dev)
			}
		}
		for _, axes := range [][]int{{0}, {1}} {
			groups := m.ReductionGroups(axes)
			seen := map[int]bool{}
			for _, g := range groups {
				for _, d := range g {
					if seen[d] {
						t.Fatalf("%v: device %d duplicated", m, d)
					}
					seen[d] = true
				}
			}
			if len(seen) != 18 {
				t.Fatalf("%v: groups cover %d devices", m, len(seen))
			}
		}
	}
}

func TestEnumerateCanonicalOrder(t *testing.T) {
	// The enumeration order must be deterministic across calls.
	a, _ := Enumerate([]int{4, 16}, []int{8, 8})
	b, _ := Enumerate([]int{4, 16}, []int{8, 8})
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("nondeterministic enumeration order")
		}
	}
}

func TestAllEnumeratedSatisfyConstraints(t *testing.T) {
	ms, err := Enumerate([]int{2, 2, 4}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		for i, p := range m.Axes {
			if factor.Product(m.X[i]) != p {
				t.Errorf("%v: row %d product wrong", m, i)
			}
		}
		for j, hsz := range m.Hier {
			col := 1
			for i := range m.Axes {
				col *= m.X[i][j]
			}
			if col != hsz {
				t.Errorf("%v: column %d product wrong", m, j)
			}
		}
	}
}
