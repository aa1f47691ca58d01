package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicHygiene bans sync/atomic's package-level functions (atomic.AddInt64,
// LoadInt64, CompareAndSwapPointer, …) in module code. A word touched
// through them must be touched through them everywhere — one plain read
// next to an atomic write is a data race the race detector only catches
// when a test happens to interleave it — and nothing in the function-style
// API enforces that. The typed atomics (atomic.Int64, atomic.Bool,
// atomic.Pointer[T], …) are immune by construction: the type system leaves
// no plain access to forget. Every atomic in the tree is typed, so the rule
// is simply that it stays that way; a call of a typed atomic's method has a
// receiver and is not matched.
var AtomicHygiene = &Analyzer{
	Name: "atomichygiene",
	Doc: "package-level sync/atomic functions are banned in module code: use a typed atomic " +
		"(atomic.Int64, atomic.Bool, atomic.Pointer[T]), which has no plain access to forget",
	Run: runAtomicHygiene,
}

func runAtomicHygiene(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := StaticCallee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			pass.Reportf(call.Pos(),
				"make the variable a typed atomic (atomic.Int64, atomic.Bool, atomic.Pointer[T]) and call its method",
				"atomic.%s is a package-level sync/atomic function: nothing stops a plain access to the same word elsewhere",
				fn.Name())
			return true
		})
	}
	return nil
}
