// Package collective formalizes the five collective operations of the P²
// paper (§3.2): AllReduce, ReduceScatter, AllGather, Reduce and Broadcast,
// with their Hoare-triple semantics over per-device state matrices.
//
// A device state is a k×k boolean matrix where k is the number of devices
// in the reduction universe. The data is conceptually split into k chunks;
// row r of the matrix describes chunk r, and bit (r, j) means device j has
// contributed its original chunk r to the reduction result this device
// holds. Initially device i holds its own full data: column i is all ones.
// The goal state of an all-reduce is the all-ones matrix on every device.
package collective

import (
	"fmt"
	"math/bits"
	"strings"
)

// State is a k×k boolean matrix stored as k rows of packed 64-bit words.
//
// A State is written only while it is being built (NewState + Set, or
// inside Apply before it is returned). Apply never mutates its inputs, so
// a State that has been published — placed in a dsl.Context, returned from
// Apply — is immutable and is shared freely: between contexts, and between
// the members of a group that hold the same data. Clone before changing one.
type State struct {
	k     int
	words int      // words per row
	bits  []uint64 // k * words, row-major
}

// NewState returns the empty (all zero) k×k state.
func NewState(k int) *State {
	if k <= 0 {
		panic(fmt.Sprintf("collective: NewState(%d)", k))
	}
	w := (k + 63) / 64
	return &State{k: k, words: w, bits: make([]uint64, k*w)}
}

// InitialState returns the state of device i before any reduction: every
// chunk present, contributed only by device i (column i all ones).
func InitialState(k, i int) *State {
	s := NewState(k)
	for r := 0; r < k; r++ {
		s.Set(r, i)
	}
	return s
}

// FullState returns the all-ones goal state.
func FullState(k int) *State {
	s := NewState(k)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			s.Set(r, c)
		}
	}
	return s
}

// K returns the universe size.
func (s *State) K() int { return s.k }

// Set sets bit (row, col).
func (s *State) Set(row, col int) {
	s.checkIdx(row, col)
	s.bits[row*s.words+col/64] |= 1 << (uint(col) % 64)
}

// Get reports bit (row, col).
func (s *State) Get(row, col int) bool {
	s.checkIdx(row, col)
	return s.bits[row*s.words+col/64]&(1<<(uint(col)%64)) != 0
}

func (s *State) checkIdx(row, col int) {
	if row < 0 || row >= s.k || col < 0 || col >= s.k {
		panic(fmt.Sprintf("collective: index (%d,%d) out of range for k=%d", row, col, s.k))
	}
}

// row returns the packed words of one row.
func (s *State) row(r int) []uint64 { return s.bits[r*s.words : (r+1)*s.words] }

// RowEmpty reports whether row r has no bits set.
func (s *State) RowEmpty(r int) bool {
	for _, w := range s.row(r) {
		if w != 0 {
			return false
		}
	}
	return true
}

// RowPopCount returns the number of set bits in row r.
func (s *State) RowPopCount(r int) int {
	n := 0
	for _, w := range s.row(r) {
		n += bits.OnesCount64(w)
	}
	return n
}

// Rows returns the indices of non-empty rows in increasing order — the
// "rows" operator of Fig. 8 (the data chunks this device holds).
func (s *State) Rows() []int {
	var out []int
	for r := 0; r < s.k; r++ {
		if !s.RowEmpty(r) {
			out = append(out, r)
		}
	}
	return out
}

// NumRows returns the number of non-empty rows.
func (s *State) NumRows() int {
	n := 0
	for r := 0; r < s.k; r++ {
		if !s.RowEmpty(r) {
			n++
		}
	}
	return n
}

// PopCount returns the total number of set bits — the information content.
func (s *State) PopCount() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	c := &State{k: s.k, words: s.words, bits: make([]uint64, len(s.bits))}
	copy(c.bits, s.bits)
	return c
}

// Clear zeroes the state in place.
func (s *State) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

// Equal reports exact equality.
func (s *State) Equal(o *State) bool {
	if s.k != o.k {
		return false
	}
	for i, w := range s.bits {
		if w != o.bits[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports s ≤ o: every bit of s is set in o.
func (s *State) SubsetOf(o *State) bool {
	if s.k != o.k {
		return false
	}
	for i, w := range s.bits {
		if w&^o.bits[i] != 0 {
			return false
		}
	}
	return true
}

// StrictSubsetOf reports s < o.
func (s *State) StrictSubsetOf(o *State) bool {
	return s.SubsetOf(o) && !s.Equal(o)
}

// IsFull reports whether the state is the all-ones goal.
func (s *State) IsFull() bool {
	return s.PopCount() == s.k*s.k
}

// unionInto ORs o into s (s must have the same k).
func (s *State) unionInto(o *State) {
	for i, w := range o.bits {
		s.bits[i] |= w
	}
}

// sameRowSet reports whether s and o have identical non-empty-row sets.
func (s *State) sameRowSet(o *State) bool {
	for r := 0; r < s.k; r++ {
		if s.RowEmpty(r) != o.RowEmpty(r) {
			return false
		}
	}
	return true
}

// rowsDisjoint reports whether, for every row index, the rows of s and o
// share no set bit (the per-chunk ⃝⋆ check of rules R-AllReduce etc.).
func (s *State) rowsDisjoint(o *State) bool {
	for i, w := range s.bits {
		if w&o.bits[i] != 0 {
			return false
		}
	}
	return true
}

// rowSetsDisjoint reports whether s and o have no common non-empty row
// index (the rows ⃝⋆ check of rule R-AllGather).
func (s *State) rowSetsDisjoint(o *State) bool {
	for r := 0; r < s.k; r++ {
		if !s.RowEmpty(r) && !o.RowEmpty(r) {
			return false
		}
	}
	return true
}

// AppendWords appends the packed representation to dst; used for hashing
// state contexts during synthesis memoization.
func (s *State) AppendWords(dst []uint64) []uint64 {
	return append(dst, s.bits...)
}

// String renders the matrix with '#' for set bits and '.' for clear ones,
// one row per line — useful in tests and error messages.
func (s *State) String() string {
	var b strings.Builder
	for r := 0; r < s.k; r++ {
		for c := 0; c < s.k; c++ {
			if s.Get(r, c) {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		if r != s.k-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
