package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the PR 8 cancellation contract statically: inside the
// cancellable packages (engine internals plus the root p2 package),
//
//   - context.Background() and context.TODO() are banned — a fresh root
//     context severs the caller's deadline from everything downstream.
//     The documented boundary shims (Plan wrapping PlanCtx, PlanJoint
//     wrapping PlanJointCtx) carry //p2:ctx-ok <why>;
//   - a function that holds a ctx must thread it: calling the
//     context-blind variant of a function whose FooCtx twin exists (the
//     module's Plan/PlanCtx naming convention) silently drops
//     the deadline mid-chain and is flagged, cross-package and cross-file:
//     each call site's callee carries its twin in go/types.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "ban context.Background/TODO in cancellable packages and flag ctx-holding functions that " +
		"call the context-blind variant of a FooCtx pair; boundary shims carry //p2:ctx-ok",
	AppliesTo: inCancellable,
	Run:       runCtxFlow,
}

// ctxVariantOf resolves fn's FooCtx twin: same receiver (for methods) or
// same package scope (for functions), name+"Ctx", taking a context.
func ctxVariantOf(fn *types.Func) *types.Func {
	if strings.HasSuffix(fn.Name(), "Ctx") || fn.Pkg() == nil {
		return nil
	}
	name := fn.Name() + "Ctx"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
	} else {
		obj = fn.Pkg().Scope().Lookup(name)
	}
	v, ok := obj.(*types.Func)
	if ok && takesContext(v.Type()) {
		return v
	}
	return nil
}

// takesContext reports whether t is a signature with a context.Context
// parameter.
func takesContext(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.Files {
		// Rule 1: no fresh context roots outside annotated shims.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if selectorPkgPath(pass, sel) != "context" {
				return true
			}
			if name := sel.Sel.Name; name == "Background" || name == "TODO" {
				if pass.Annot.Covers(sel.Pos(), MarkerCtxOk) {
					return true
				}
				pass.Reportf(sel.Pos(),
					"thread the caller's ctx, or annotate a documented boundary shim //p2:ctx-ok <why>",
					"context.%s creates a fresh context root inside a cancellable package, severing the caller's deadline", name)
			}
			return true
		})
		// Rule 2: ctx holders must thread it to FooCtx twins. Calls inside
		// closures count as the enclosing function's: a closure is part of
		// its parent's control flow and sees the same ctx.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || !takesContext(fn.Type()) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if ok {
					checkCtxThreaded(pass, fn, call)
				}
				return true
			})
		}
	}
	return nil
}

// checkCtxThreaded flags call when it is a static call, from the
// ctx-holding fn, of a context-blind module function whose Ctx twin
// exists.
func checkCtxThreaded(pass *Pass, fn *types.Func, call *ast.CallExpr) {
	callee := StaticCallee(pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil || !inModule(callee.Pkg().Path()) {
		return
	}
	if takesContext(callee.Type()) {
		return // already threading (or callee takes its own ctx)
	}
	variant := ctxVariantOf(callee)
	if variant == nil {
		return // no Ctx twin: callee is genuinely context-free
	}
	if pass.Annot.Covers(call.Pos(), MarkerCtxOk) {
		return
	}
	pass.Reportf(call.Pos(),
		"call "+variant.Name()+" with the ctx in scope, or annotate //p2:ctx-ok <why>",
		"%s holds a ctx but calls %s, whose context-threading variant %s exists — the deadline is dropped mid-chain",
		fn.Name(), callee.Name(), variant.Name())
}
