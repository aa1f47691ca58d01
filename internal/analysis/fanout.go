package analysis

import (
	"go/ast"
	"go/types"
)

// FanOut flags unordered result collection in goroutine fan-outs. The
// engine's convention (plan.Measure, the rerank measurement stage) is
// that parallel results land by index into a preallocated slice — the one
// collection shape that is independent of goroutine scheduling. Two
// nondeterministic shapes are flagged:
//
//   - a goroutine appending to a slice captured from the enclosing
//     function (with or without a mutex — the lock serializes the appends
//     but not their order);
//   - a range over a channel whose body appends the received values to a
//     slice (multi-sender receive order is scheduling-dependent).
//
// Collections that are provably order-insensitive downstream — e.g. the
// planner's per-worker heaps, merged by a full sort — annotate the append
// with //p2:order-independent <why>.
var FanOut = &Analyzer{
	Name: "fanout",
	Doc: "flag unordered fan-out collection (append to a captured slice inside a goroutine, " +
		"append inside a channel drain); parallel results must land by index",
	AppliesTo: inCritical,
	Run:       runFanOut,
}

func runFanOut(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFanOut(pass, fn.Body)
		}
	}
	return nil
}

func checkFanOut(pass *Pass, body *ast.BlockStmt) {
	// Local closures assigned to variables: `worker := func() {...}` later
	// launched as `go worker()`.
	localFns := map[types.Object]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			lit, ok := as.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				localFns[obj] = lit
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				localFns[obj] = lit
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			var lit *ast.FuncLit
			switch fun := ast.Unparen(n.Call.Fun).(type) {
			case *ast.FuncLit:
				lit = fun
			case *ast.Ident:
				lit = localFns[pass.TypesInfo.Uses[fun]]
			}
			if lit != nil {
				checkGoroutineAppends(pass, lit)
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					checkDrainAppends(pass, n)
				}
			}
		}
		return true
	})
}

// checkGoroutineAppends flags appends inside lit whose target is captured
// from the enclosing function.
func checkGoroutineAppends(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if !isAppendCall(pass, as.Rhs[i]) {
				continue
			}
			obj := rootObject(pass, as.Lhs[i])
			if obj == nil {
				continue
			}
			// Captured = declared outside the literal's extent.
			if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
				continue
			}
			if pass.Annot.Covers(as.Pos(), MarkerOrderIndependent) {
				continue
			}
			pass.Reportf(as.Pos(),
				"preallocate the results slice and land by index (results[i] = ...), or annotate //p2:order-independent <why>",
				"goroutine appends to captured slice %s: arrival order depends on scheduling, not input order", obj.Name())
		}
		return true
	})
}

// checkDrainAppends flags appends inside a range-over-channel body.
func checkDrainAppends(pass *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if !isAppendCall(pass, as.Rhs[i]) {
				continue
			}
			if pass.Annot.Covers(as.Pos(), MarkerOrderIndependent) {
				continue
			}
			pass.Reportf(as.Pos(),
				"have senders tag results with their input index and land by index, or annotate //p2:order-independent <why>",
				"channel drain collects results in receive order, which is scheduling-dependent with multiple senders")
		}
		return true
	})
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append" && isBuiltin(pass, id)
}

// rootObject resolves the base identifier of an assignable expression
// (x, x.f, x[i]) to its declared object.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}
