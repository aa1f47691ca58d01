// Package nanfloat is the analysistest fixture for the nanfloat analyzer:
// float equality, NaN-unsafe validation guards, and NaN-propagating
// math.Max/Min inside the engine.
package nanfloat

import "math"

// validateBad uses the `<= 0` rejection form: a NaN payload fails the
// comparison and slips past the early exit — the bug PR 6 fixed in
// plan/bounds.go.
func validateBad(bytes float64) float64 {
	if bytes <= 0 { // want "NaN-unsafe validation guard: NaN fails <= and slips past the early exit"
		return 0
	}
	return bytes
}

// validateStrict is the strict-inequality variant of the same bug.
func validateStrict(w float64) float64 {
	if w < 1 { // want "NaN-unsafe validation guard: NaN fails < and slips past the early exit"
		return 1
	}
	return w
}

// spec mirrors a request whose zero payload inherits a default.
type spec struct{ Bytes float64 }

// defaultBad is the defaulting form of the same bug: a NaN payload fails
// `<= 0`, skips the reassignment and is used as is — the shape of the NaN
// holes in p2's Request.withDefaults and netsim's ConcurrentSpec.normalized.
func defaultBad(c spec, def float64) spec {
	if c.Bytes <= 0 { // want "NaN-unsafe defaulting guard: NaN fails <= and keeps its value"
		c.Bytes = def
	}
	return c
}

// defaultGood defaults NaN along with the non-positive payloads.
func defaultGood(c spec, def float64) spec {
	if !(c.Bytes > 0) {
		c.Bytes = def
	}
	return c
}

// clampOther assigns something other than the compared value: not a
// defaulting guard, not flagged.
func clampOther(x float64) (float64, bool) {
	neg := false
	if x < 0 {
		neg = true
	}
	return x, neg
}

// validateGood is the blessed NaN-proof convention: NaN fails the inner
// comparison, so the negation routes it into the rejecting branch.
func validateGood(bytes float64) float64 {
	if !(bytes > 0) {
		return 0
	}
	return bytes
}

// validateRange is the compound blessed form from topology's override
// validation: the whole accepting condition is negated.
func validateRange(frac float64) bool {
	if !(frac >= 0 && frac < 1) {
		return false
	}
	return true
}

// equal compares floats with ==: NaN compares unequal to everything.
func equal(a, b float64) bool {
	return a == b // want "float == comparison is NaN-unsafe"
}

// isNaNManual is the self-comparison idiom; the fix suggests math.IsNaN.
func isNaNManual(x float64) bool {
	return x != x // want "float != comparison is NaN-unsafe"
}

// isInfManual compares against math.Inf; the fix suggests math.IsInf —
// the down-link +Inf-vs-+Inf comparison shape from plan/bounds.go.
func isInfManual(x float64) bool {
	return x == math.Inf(1) // want "float == comparison is NaN-unsafe"
}

// worst propagates NaN through math.Max: the winner is undefined.
func worst(a, b float64) float64 {
	return math.Max(a, b) // want "math.Max propagates NaN"
}

// blessedEqual documents why its operands are never NaN.
func blessedEqual(a, b float64) bool {
	//p2:nan-ok operands are validated finite by the caller
	return a == b
}

// blessedMax documents why its operands are never NaN.
func blessedMax(a, b float64) float64 {
	return math.Max(a, b) //p2:nan-ok both operands are sums of validated finite link times
}

// intGuard is integer validation: never flagged, ints have no NaN.
func intGuard(n int) int {
	if n <= 0 {
		return 0
	}
	return n
}

// constFold compares two constants: decided at compile time, not flagged.
func constFold() bool {
	return 1.0 == 2.0
}
