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
	"slices"
	"strings"
)

// State is a k×k boolean matrix stored as k rows of packed 64-bit words.
//
// A State is written only while it is being built (NewState + Set, or
// by Post into a caller's scratch) and is then sealed: Seal fixes its
// hash and a later Set panics. Apply never mutates its inputs and seals its
// results, as do InitialState and dsl.TargetState, so a State that has been
// published — placed in a dsl.Context, returned from Apply — is immutable
// and is shared freely: between contexts, and between the members of a
// group that hold the same data.
type State struct {
	k     int
	words int // words per row
	// bits is the k matrix rows, row-major, then one mask row: bit r of it
	// is set iff matrix row r is non-empty. Every writer keeps the mask in
	// step, so the row-set predicates are word operations at any time.
	bits   []uint64
	hash   uint64
	sealed bool
}

// NewState returns the empty (all zero) k×k state.
func NewState(k int) *State {
	if k <= 0 {
		panic(fmt.Sprintf("collective: NewState(%d)", k))
	}
	w := (k + 63) / 64
	return &State{k: k, words: w, bits: make([]uint64, (k+1)*w)}
}

// InitialState returns the sealed state of device i before any reduction:
// every chunk present, contributed only by device i (column i all ones).
func InitialState(k, i int) *State {
	s := NewState(k)
	for r := 0; r < k; r++ {
		s.Set(r, i)
	}
	return s.Seal()
}

// Seal publishes s, so that it can be shared: it fixes the hash and makes
// any later Set panic. It returns s; sealing twice is a no-op.
func (s *State) Seal() *State {
	if !s.sealed {
		h := uint64(s.k)
		for _, w := range s.matrix() {
			h = (h ^ w) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
		s.hash, s.sealed = h, true
	}
	return s
}

// Hash returns a 64-bit hash of a sealed state's bits: equal states hash
// equally, so a table keyed on it confirms a hit with Equal.
func (s *State) Hash() uint64 {
	if !s.sealed {
		panic("collective: Hash of an unsealed state")
	}
	return s.hash
}

// Set sets bit (row, col). It panics on a sealed state.
func (s *State) Set(row, col int) {
	s.checkIdx(row, col)
	if s.sealed {
		panic("collective: Set on a sealed state")
	}
	s.bits[row*s.words+col/64] |= 1 << (uint(col) % 64)
	s.mask()[row/64] |= 1 << (uint(row) % 64)
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

// matrix returns the k matrix rows without the mask row.
func (s *State) matrix() []uint64 { return s.bits[:s.k*s.words] }

// mask returns the non-empty-row mask, stored as row k.
func (s *State) mask() []uint64 { return s.row(s.k) }

// RowEmpty reports whether row r has no bits set.
func (s *State) RowEmpty(r int) bool {
	s.checkIdx(r, 0)
	return s.mask()[r/64]&(1<<(uint(r)%64)) == 0
}

// NumRows returns the number of non-empty rows.
func (s *State) NumRows() int {
	n := 0
	for _, w := range s.mask() {
		n += bits.OnesCount64(w)
	}
	return n
}

// PopCount returns the total number of set bits — the information content.
func (s *State) PopCount() int {
	n := 0
	for _, w := range s.matrix() {
		n += bits.OnesCount64(w)
	}
	return n
}

// reset makes s the empty, unsealed k×k state, reusing its storage.
func (s *State) reset(k int) {
	s.k, s.words, s.hash, s.sealed = k, (k+63)/64, 0, false
	s.bits = slices.Grow(s.bits[:0], (k+1)*s.words)[:(k+1)*s.words]
	clear(s.bits)
}

// Equal reports exact equality (equal matrices have equal masks).
func (s *State) Equal(o *State) bool {
	if s == o {
		return true
	}
	if s.k != o.k || s.sealed && o.sealed && s.hash != o.hash {
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
	if s == o {
		return true
	}
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

// unionInto ORs o into the unsealed s, mask row included (same k).
func (s *State) unionInto(o *State) {
	for i, w := range o.bits {
		s.bits[i] |= w
	}
}

// sameRowSet reports whether s and o have identical non-empty-row sets.
func (s *State) sameRowSet(o *State) bool {
	for i, w := range s.mask() {
		if w != o.mask()[i] {
			return false
		}
	}
	return true
}

// rowSetsDisjoint reports whether s and o have no common non-empty row
// index (the rows ⃝⋆ check of rule R-AllGather).
func (s *State) rowSetsDisjoint(o *State) bool {
	for i, w := range s.mask() {
		if w&o.mask()[i] != 0 {
			return false
		}
	}
	return true
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
