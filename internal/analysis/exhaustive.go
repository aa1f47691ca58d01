package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Exhaustive enforces closed-enum switch coverage: the module's mode and
// kind types (cost.Algorithm, plan.RerankMode, hierarchy.Kind, dsl's
// FormKind, collective's Op) follow the named-basic-type-plus-constants
// idiom, and a switch over one that neither covers every declared constant
// nor carries a default clause silently does nothing when the enum grows —
// the bug class PR 4 hit when halving-doubling joined Algorithm. A switch
// is accepted when it covers every constant of the type accessible from
// the switch's package (an unexported sentinel like a trailing numOps
// doesn't count cross-package) or when it has a default.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc: "switches over module-defined enum types (named basic type with declared constants) must " +
		"cover every accessible constant or carry a default clause",
	Run: runExhaustive,
}

func runExhaustive(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	enum, consts := enumConstants(pass, tv.Type)
	if len(consts) < 2 {
		return // not a closed enum: one constant is a flag, not a space
	}
	covered := map[types.Object]bool{}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default clause: the switch handles growth explicitly
		}
		for _, e := range cc.List {
			if obj := constObjOf(pass, e); obj != nil {
				covered[obj] = true
			}
		}
	}
	var missing []string
	for _, c := range consts {
		if !covered[c] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	pass.Reportf(sw.Pos(),
		"add the missing cases or a default clause",
		"switch over %s misses %s: a grown enum silently falls through here",
		enum.Obj().Name(), strings.Join(missing, ", "))
}

// enumConstants resolves t to a module-defined enum — a named type with
// basic underlying type — and its declared package-level constants that
// are accessible from the analyzed package, in declaration order.
func enumConstants(pass *Pass, t types.Type) (*types.Named, []*types.Const) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
		return nil, nil
	}
	if _, basic := named.Underlying().(*types.Basic); !basic {
		return nil, nil
	}
	scope := obj.Pkg().Scope()
	samePkg := pass.Pkg != nil && pass.Pkg.Path() == obj.Pkg().Path()
	var consts []*types.Const
	for _, name := range scope.Names() { // Names() is sorted: deterministic
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if !samePkg && !c.Exported() {
			continue // unexported sentinels are invisible to this switch
		}
		consts = append(consts, c)
	}
	return named, consts
}

// constObjOf resolves a case expression to the declared constant it names.
func constObjOf(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}
