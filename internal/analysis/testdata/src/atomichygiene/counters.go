// Package atomichygiene is the fixture for the atomichygiene analyzer:
// sync/atomic's package-level functions are banned, typed atomics are the
// blessed shape.
package atomichygiene

import "sync/atomic"

// gauge mixes the two atomic styles.
type gauge struct {
	hits  int64
	level int64
	name  string
	// safe and ready are typed atomics: no plain access exists to forget.
	safe  atomic.Int64
	ready atomic.Bool
}

func (g *gauge) bump() {
	atomic.AddInt64(&g.hits, 1)    // want "atomic.AddInt64 is a package-level sync/atomic function"
	atomic.StoreInt64(&g.level, 3) // want "atomic.StoreInt64 is a package-level sync/atomic function"
	g.safe.Add(1)
	g.ready.Store(true)
}

func (g *gauge) loaded() int64 {
	return atomic.LoadInt64(&g.hits) // want "atomic.LoadInt64 is a package-level sync/atomic function"
}
