// Package factor provides the integer-combinatorics substrate used by the
// placement and synthesis layers: divisor enumeration, ordered
// factorizations, and mixed-radix coordinate codecs.
//
// Every routine in this package is deterministic and returns results in a
// canonical (lexicographically sorted) order so that higher layers produce
// reproducible enumerations.
package factor

import (
	"fmt"
	"sort"
)

// Divisors returns all positive divisors of n in increasing order.
// It panics if n <= 0.
func Divisors(n int) []int {
	if n <= 0 {
		panic(fmt.Sprintf("factor: Divisors of non-positive %d", n))
	}
	var small, large []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			small = append(small, d)
			if q := n / d; q != d {
				large = append(large, q)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

// OrderedFactorizations returns every way to write n as an ordered product
// of exactly k positive factors. Factors of 1 are allowed, so the result
// always contains at least one entry for n >= 1, k >= 1 (and exactly one
// when n == 1). Results are in lexicographic order.
//
// For example OrderedFactorizations(4, 2) = [[1 4] [2 2] [4 1]].
func OrderedFactorizations(n, k int) [][]int {
	if n <= 0 || k <= 0 {
		panic(fmt.Sprintf("factor: OrderedFactorizations(%d, %d)", n, k))
	}
	var out [][]int
	cur := make([]int, k)
	var rec func(pos, rem int)
	rec = func(pos, rem int) {
		if pos == k-1 {
			cur[pos] = rem
			out = append(out, append([]int(nil), cur...))
			return
		}
		for _, d := range Divisors(rem) {
			cur[pos] = d
			rec(pos+1, rem/d)
		}
	}
	rec(0, n)
	return out
}

// Product returns the product of xs, which is 1 for an empty slice.
func Product(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// Radix is a mixed-radix positional codec. Digit 0 is the most significant
// position; radix sizes of 1 contribute nothing but are preserved so that
// digit positions stay aligned with hierarchy levels.
type Radix struct {
	sizes   []int
	weights []int // weights[i] = product of sizes[i+1:]
	total   int
}

// NewRadix builds a codec for the given per-position sizes. It panics if
// any size is non-positive.
func NewRadix(sizes []int) *Radix {
	r := &Radix{
		sizes:   append([]int(nil), sizes...),
		weights: make([]int, len(sizes)),
		total:   1,
	}
	for i := len(sizes) - 1; i >= 0; i-- {
		if sizes[i] <= 0 {
			panic(fmt.Sprintf("factor: NewRadix with non-positive size %d at %d", sizes[i], i))
		}
		r.weights[i] = r.total
		r.total *= sizes[i]
	}
	return r
}

// Len returns the number of digit positions.
func (r *Radix) Len() int { return len(r.sizes) }

// Size returns the radix of digit position i.
func (r *Radix) Size(i int) int { return r.sizes[i] }

// Sizes returns a copy of the per-position radix sizes.
func (r *Radix) Sizes() []int { return append([]int(nil), r.sizes...) }

// Total returns the number of representable values (product of all sizes).
func (r *Radix) Total() int { return r.total }

// Weight returns the positional weight of digit i (the product of all less
// significant radix sizes).
func (r *Radix) Weight(i int) int { return r.weights[i] }

// Encode packs digits into a single index. It panics if a digit is out of
// range or the digit count mismatches.
func (r *Radix) Encode(digits []int) int {
	if len(digits) != len(r.sizes) {
		panic(fmt.Sprintf("factor: Encode got %d digits, want %d", len(digits), len(r.sizes)))
	}
	v := 0
	for i, d := range digits {
		if d < 0 || d >= r.sizes[i] {
			panic(fmt.Sprintf("factor: digit %d out of range [0,%d) at position %d", d, r.sizes[i], i))
		}
		v += d * r.weights[i]
	}
	return v
}

// Decode unpacks index v into digits. It panics if v is out of range.
func (r *Radix) Decode(v int) []int {
	digits := make([]int, len(r.sizes))
	r.DecodeInto(v, digits)
	return digits
}

// DecodeInto unpacks index v into the provided digit slice, avoiding an
// allocation. It panics if v is out of range or dst has the wrong length.
func (r *Radix) DecodeInto(v int, dst []int) {
	if v < 0 || v >= r.total {
		panic(fmt.Sprintf("factor: value %d out of range [0,%d)", v, r.total))
	}
	if len(dst) != len(r.sizes) {
		panic(fmt.Sprintf("factor: DecodeInto got %d digits, want %d", len(dst), len(r.sizes)))
	}
	for i := range r.sizes {
		dst[i] = v / r.weights[i]
		v %= r.weights[i]
	}
}

// Digit extracts digit position i of index v without a full decode.
func (r *Radix) Digit(v, i int) int {
	return (v / r.weights[i]) % r.sizes[i]
}

// Compose returns the index obtained from v by replacing digit i with d.
func (r *Radix) Compose(v, i, d int) int {
	old := r.Digit(v, i)
	return v + (d-old)*r.weights[i]
}

// PrimeFactors returns the prime factorization of n as a sorted slice with
// multiplicity, e.g. PrimeFactors(12) = [2 2 3].
func PrimeFactors(n int) []int {
	if n <= 0 {
		panic(fmt.Sprintf("factor: PrimeFactors of non-positive %d", n))
	}
	var out []int
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			out = append(out, p)
			n /= p
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// GCD returns the greatest common divisor of a and b.
func GCD(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// UniqueSortedInts returns xs deduplicated and sorted ascending, without
// modifying the input.
func UniqueSortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	w := 0
	for i, x := range out {
		if i == 0 || x != out[w-1] {
			out[w] = x
			w++
		}
	}
	return out[:w]
}
