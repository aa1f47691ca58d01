package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// NaNFloat flags float comparisons written in NaN-unsafe form. The
// engine's convention (established by the PR 6 link validation) is that a
// guard rejecting or defaulting bad values must also catch NaN, which
// silently fails every ordered comparison: `if x <= 0 { reject }` lets
// NaN through, `if !(x > 0) { reject }` does not. Three patterns are
// flagged:
//
//   - float == / != — NaN never compares equal (and a NaN operand breaks
//     strict-weak ordering in comparators); comparisons against math.Inf
//     should use math.IsInf, self-comparisons math.IsNaN. Sites whose
//     operands are validated finite upstream annotate //p2:nan-ok <why>.
//   - `if x <= c` / `if x < c` guards (float x, constant c) whose body
//     exits early — the NaN-unsafe validation shape — or assigns to x —
//     the NaN-unsafe defaulting shape, `if x <= 0 { x = def }`; rewrite
//     the condition as !(x > c) so NaN takes the rejecting (defaulting)
//     branch.
//   - math.Max / math.Min — both propagate NaN asymmetrically (NaN wins
//     or loses depending on argument order); explicit comparisons or a
//     NaN-aware helper make the intent visible.
var NaNFloat = &Analyzer{
	Name: "nanfloat",
	Doc: "flag NaN-unsafe float comparisons: ==/!= on floats, `x <= c` early-exit or defaulting guards that " +
		"should read !(x > c) so NaN is rejected or defaulted, and math.Max/Min on possibly-NaN values",
	AppliesTo: inEngine,
	Run:       runNaNFloat,
}

func runNaNFloat(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkFloatEquality(pass, n)
			case *ast.IfStmt:
				checkGuardComparisons(pass, n)
			case *ast.CallExpr:
				checkMathMinMax(pass, n)
			}
			return true
		})
	}
	return nil
}

// isFloat reports whether e has floating-point type (and is not an
// untyped constant folded at compile time).
func isFloat(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isConstExpr reports whether e is a compile-time constant.
func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// checkFloatEquality flags ==/!= between float operands.
func checkFloatEquality(pass *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if !isFloat(pass, be.X) || !isFloat(pass, be.Y) {
		return
	}
	if isConstExpr(pass, be.X) && isConstExpr(pass, be.Y) {
		return
	}
	if pass.Annot.Covers(be.Pos(), MarkerNanOk) {
		return
	}
	fix := "compare with an epsilon, restructure around ordering, or annotate //p2:nan-ok <why operands are finite>"
	switch {
	case exprString(be.X) != "" && exprString(be.X) == exprString(be.Y):
		fix = "use math.IsNaN"
	case isInfExpr(pass, be.X) || isInfExpr(pass, be.Y):
		fix = "use math.IsInf"
	}
	pass.Reportf(be.Pos(), fix,
		"float %s comparison is NaN-unsafe (NaN compares unequal to everything, including itself)", be.Op)
}

// isInfExpr reports whether e is a math.Inf(...) call or an infinite
// constant.
func isInfExpr(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Inf" && selectorPkgPath(pass, sel) == "math"
}

// exprString renders a small expression for identity comparison.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return ""
	}
}

// checkGuardComparisons flags NaN-unsafe validation guards: a float
// comparison against a constant inside an if condition whose body exits
// early (return / panic / continue / break) or assigns to the compared
// expression (defaulting). NaN fails `x <= c`, so the "bad value" branch
// never runs for NaN; `!(x > c)` routes NaN into it.
func checkGuardComparisons(pass *Pass, ifs *ast.IfStmt) {
	exits := terminates(ifs.Body)
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.NOT {
			// !(x >= 0 && x < 1) is the blessed NaN-proof shape: NaN fails
			// the inner comparison and the negation routes it to the exit.
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		// Normalize to (variable OP constant): c >= x means x <= c.
		v, c, op := be.X, be.Y, be.Op
		if isConstExpr(pass, v) && !isConstExpr(pass, c) {
			v, c = c, v
			switch op {
			case token.GEQ:
				op = token.LEQ
			case token.GTR:
				op = token.LSS
			default:
				return true
			}
		}
		if op != token.LEQ && op != token.LSS {
			return true
		}
		if !isFloat(pass, v) || !isConstExpr(pass, c) || isConstExpr(pass, v) {
			return true
		}
		if !(exits || assignsTo(ifs.Body, exprString(v))) || pass.Annot.Covers(be.Pos(), MarkerNanOk) {
			return true
		}
		shape, slip, fix := "validation", "slips past the early exit", "takes the rejecting branch"
		if !exits {
			shape, slip, fix = "defaulting", "keeps its value", "is defaulted too"
		}
		inverse := ">"
		if op == token.LSS {
			inverse = ">="
		}
		pass.Reportf(be.Pos(),
			fmt.Sprintf("write !(x %s c) so NaN %s, or annotate //p2:nan-ok <why>", inverse, fix),
			"NaN-unsafe %s guard: NaN fails %s and %s", shape, op, slip)
		return true
	})
}

// assignsTo reports whether a statement of the block assigns to the
// expression rendered as name (see exprString; "" never matches).
func assignsTo(b *ast.BlockStmt, name string) bool {
	for _, st := range b.List {
		if as, ok := st.(*ast.AssignStmt); ok && name != "" &&
			slices.ContainsFunc(as.Lhs, func(e ast.Expr) bool { return exprString(e) == name }) {
			return true
		}
	}
	return false
}

// terminates reports whether the block's last statement exits the
// surrounding flow: return, panic, continue, break or goto.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// checkMathMinMax flags math.Max and math.Min calls.
func checkMathMinMax(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Max" && sel.Sel.Name != "Min") {
		return
	}
	if selectorPkgPath(pass, sel) != "math" {
		return
	}
	if pass.Annot.Covers(call.Pos(), MarkerNanOk) {
		return
	}
	pass.Reportf(call.Pos(),
		"write the comparison explicitly with the NaN case decided, or annotate //p2:nan-ok <why operands are finite>",
		"math.%s propagates NaN (the result is NaN if either operand is); on possibly-NaN values the winner is undefined",
		sel.Sel.Name)
}
