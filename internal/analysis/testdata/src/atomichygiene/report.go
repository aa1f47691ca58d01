package atomichygiene

import "sync/atomic"

// total is a package-level word: the ban is on the function, not on what
// it points at, so a non-field target is flagged too.
var total int64

func swap(old, new int64) bool {
	return (atomic.CompareAndSwapInt64)(&total, old, new) // want "atomic.CompareAndSwapInt64 is a package-level sync/atomic function"
}

// snapshot and reset touch plainly the fields counters.go touches through
// sync/atomic. The plain side is not what the rule reports: with the
// function-style calls banned there is no atomic side left to conflict with.
func (g *gauge) snapshot() int64 { return g.hits }

func (g *gauge) reset() { g.level = 0 }

// consistent goes through typed atomics' methods: calls into sync/atomic
// with a receiver, which the rule must not match.
func (g *gauge) consistent() int64 {
	if !g.ready.Load() {
		return 0
	}
	var p atomic.Pointer[gauge]
	p.Store(g)
	return p.Load().safe.Load()
}

// label touches the never-atomic field.
func (g *gauge) label() string { return g.name }
