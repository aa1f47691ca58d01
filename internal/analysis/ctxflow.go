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
//     the deadline mid-chain and is flagged, cross-package and cross-file,
//     via the call graph and the CtxVariantFact its Collect publishes.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "ban context.Background/TODO in cancellable packages and flag ctx-holding functions that " +
		"call the context-blind variant of a FooCtx pair; boundary shims carry //p2:ctx-ok",
	AppliesTo: inCancellable,
	Collect:   collectCtxVariants,
	Run:       runCtxFlow,
}

// CtxVariantFact is published on every module function fn for which a
// sibling fn.Name()+"Ctx" taking a context.Context exists in the same
// scope (package scope for functions, method set for methods).
type CtxVariantFact struct {
	Variant *types.Func
}

// AFact marks CtxVariantFact as a fact.
func (*CtxVariantFact) AFact() {}

// collectCtxVariants publishes a CtxVariantFact for every module function
// with a context-threading twin.
func collectCtxVariants(m *Module) {
	for _, fn := range m.CallGraph.Functions() {
		if v := ctxVariantOf(fn); v != nil {
			m.ExportObjectFact(fn, &CtxVariantFact{Variant: v})
		}
	}
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
		// Rule 2: ctx holders must thread it to FooCtx twins.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || !takesContext(fn.Type()) {
				continue
			}
			for _, site := range pass.Module.CallGraph.CallsFrom(fn) {
				if takesContext(site.Callee.Type()) {
					continue // already threading (or callee takes its own ctx)
				}
				var variant CtxVariantFact
				if !pass.Module.ImportObjectFact(site.Callee, &variant) {
					continue // no Ctx twin: callee is genuinely context-free
				}
				if pass.Annot.Covers(site.Pos, MarkerCtxOk) {
					continue
				}
				pass.Reportf(site.Pos,
					"call "+variant.Variant.Name()+" with the ctx in scope, or annotate //p2:ctx-ok <why>",
					"%s holds a ctx but calls %s, whose context-threading variant %s exists — the deadline is dropped mid-chain",
					fn.Name(), site.Callee.Name(), variant.Variant.Name())
			}
		}
	}
	return nil
}
