package factor

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestDivisors(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{4, []int{1, 2, 4}},
		{12, []int{1, 2, 3, 4, 6, 12}},
		{16, []int{1, 2, 4, 8, 16}},
		{17, []int{1, 17}},
		{36, []int{1, 2, 3, 4, 6, 9, 12, 18, 36}},
	}
	for _, c := range cases {
		if got := Divisors(c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Divisors(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestDivisorsPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Divisors(%d) did not panic", n)
				}
			}()
			Divisors(n)
		}()
	}
}

func TestOrderedFactorizationsSmall(t *testing.T) {
	got := OrderedFactorizations(4, 2)
	want := [][]int{{1, 4}, {2, 2}, {4, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OrderedFactorizations(4,2) = %v, want %v", got, want)
	}
}

func TestOrderedFactorizationsOne(t *testing.T) {
	got := OrderedFactorizations(1, 3)
	want := [][]int{{1, 1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OrderedFactorizations(1,3) = %v, want %v", got, want)
	}
}

func TestOrderedFactorizationsK1(t *testing.T) {
	got := OrderedFactorizations(12, 1)
	want := [][]int{{12}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OrderedFactorizations(12,1) = %v, want %v", got, want)
	}
}

func TestOrderedFactorizationsProductsAndUnique(t *testing.T) {
	for _, n := range []int{2, 6, 8, 12, 16, 30, 64} {
		for k := 1; k <= 4; k++ {
			fs := OrderedFactorizations(n, k)
			seen := map[string]bool{}
			for _, f := range fs {
				if len(f) != k {
					t.Fatalf("n=%d k=%d: factorization %v has wrong length", n, k, f)
				}
				if Product(f) != n {
					t.Fatalf("n=%d k=%d: factorization %v product != n", n, k, f)
				}
				key := ""
				for _, x := range f {
					key += string(rune(x)) + ","
				}
				if seen[key] {
					t.Fatalf("n=%d k=%d: duplicate factorization %v", n, k, f)
				}
				seen[key] = true
			}
		}
	}
}

func TestOrderedFactorizationsCountKnown(t *testing.T) {
	// The number of ordered factorizations of 2^a into k factors is the
	// number of weak compositions of a into k parts: C(a+k-1, k-1).
	if got := len(OrderedFactorizations(16, 2)); got != 5 {
		t.Errorf("16 into 2 factors: got %d, want 5", got)
	}
	if got := len(OrderedFactorizations(16, 3)); got != 15 {
		t.Errorf("16 into 3 factors: got %d, want 15", got)
	}
}

func TestProduct(t *testing.T) {
	if Product(nil) != 1 {
		t.Error("Product(nil) != 1")
	}
	if Product([]int{2, 3, 4}) != 24 {
		t.Error("Product([2 3 4]) != 24")
	}
}

func TestRadixRoundTrip(t *testing.T) {
	r := NewRadix([]int{1, 2, 2, 4})
	if r.Total() != 16 {
		t.Fatalf("Total = %d, want 16", r.Total())
	}
	for v := 0; v < r.Total(); v++ {
		d := r.Decode(v)
		if got := r.Encode(d); got != v {
			t.Errorf("Encode(Decode(%d)) = %d", v, got)
		}
	}
}

func TestRadixDigitAndCompose(t *testing.T) {
	r := NewRadix([]int{2, 3, 4})
	for v := 0; v < r.Total(); v++ {
		d := r.Decode(v)
		for i := range d {
			if got := r.Digit(v, i); got != d[i] {
				t.Errorf("Digit(%d,%d) = %d, want %d", v, i, got, d[i])
			}
		}
	}
}

func TestRadixQuickRoundTrip(t *testing.T) {
	r := NewRadix([]int{3, 1, 5, 2, 4})
	f := func(raw uint32) bool {
		v := int(raw) % r.Total()
		return r.Encode(r.Decode(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRadixWeights(t *testing.T) {
	r := NewRadix([]int{2, 2, 4})
	wants := []int{8, 4, 1}
	for i, w := range wants {
		if r.Weight(i) != w {
			t.Errorf("Weight(%d) = %d, want %d", i, r.Weight(i), w)
		}
	}
}

func TestRadixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRadix with zero size did not panic")
		}
	}()
	NewRadix([]int{2, 0})
}

func TestRadixEncodePanicsOnBadDigit(t *testing.T) {
	r := NewRadix([]int{2, 2})
	defer func() {
		if recover() == nil {
			t.Error("Encode with out-of-range digit did not panic")
		}
	}()
	r.Encode([]int{1, 2})
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	r := NewRadix([]int{4, 2, 8})
	buf := make([]int, 3)
	for v := 0; v < r.Total(); v += 7 {
		r.DecodeInto(v, buf)
		if !reflect.DeepEqual(buf, r.Decode(v)) {
			t.Errorf("DecodeInto(%d) = %v, Decode = %v", v, buf, r.Decode(v))
		}
	}
}
