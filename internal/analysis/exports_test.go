package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal functions and methods that
// only tests call and that stay exported anyway, each with its reason.
var exportAllowlist = map[string]string{
	"p2/internal/hierarchy.MustBuild":                   "fixture shared by several test packages",
	"p2/internal/placement.MustMatrix":                  "fixture shared by several test packages",
	"(*p2/internal/placement.Matrix).ReductionGroups":   "test oracle for the planner's reduction groups",
	"(*p2/internal/placement.Matrix).LevelCoord":        "test oracle for the hierarchy's level coordinates",
	"(*p2/internal/netsim.Simulator).MeasureConcurrent": "the tracked BenchmarkNetsimConcurrent row calls it",
	"(*p2/internal/cost.Model).StepTimeAlgo":            "the pooled per-step view the pinned step-time bits and digests read",
	"(*p2/internal/collective.State).PopCount":          "goal oracle of the collective and dsl tests (a full state has k² bits)",
	"(*p2/internal/factor.Radix).Encode":                "inverse of Decode, the round-trip oracle of the factor and topology tests",
	"(*p2/internal/lower.Program).Validate":             "structural oracle the lowering tests check every lowered program against",
	"(p2/internal/dsl.Program).Implements":              "semantic oracle of the dsl and synth tests, FuzzSynthesizeSound included",
	"p2/internal/synth.Candidates":                      "the instruction space the lowering tests and the hierarchy ablation row enumerate",
}

// TestNoTestOnlyExports keeps test oracles in tests: every exported
// function or method declared under p2/internal/ must have a use in the
// module's non-test Go (root, cmd/, bench/, examples/, scripts/ and the
// internal packages themselves) outside its own declaration. A method that
// satisfies a standard-library interface (String, Error, flag.Value's Set,
// ...) counts as used. The rest either goes or joins exportAllowlist with
// a reason.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	fset, pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		fn       *types.Func
		pos, end token.Pos
	}
	decls := map[string]decl{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "p2/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.TypesInfo.Defs[fd.Name].(*types.Func)
				decls[fn.FullName()] = decl{fn, fd.Pos(), fd.End()}
			}
		}
	}
	used := map[string]bool{}
	for _, p := range pkgs {
		for id, obj := range p.TypesInfo.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			name := fn.Origin().FullName()
			if d, ok := decls[name]; ok && fset.File(id.Pos()) == fset.File(d.pos) && id.Pos() >= d.pos && id.Pos() < d.end {
				continue // recursion is not a use
			}
			used[name] = true
		}
	}
	ifaces := stdInterfaces(pkgs)
	var unused []string
	for name, d := range decls {
		if used[name] || satisfiesStd(d.fn, ifaces) {
			if _, ok := exportAllowlist[name]; ok && used[name] {
				t.Errorf("%s has a non-test use now; drop it from exportAllowlist", name)
			}
			continue
		}
		if _, ok := exportAllowlist[name]; !ok {
			unused = append(unused, name)
		}
	}
	for name := range exportAllowlist {
		if _, ok := decls[name]; !ok {
			t.Errorf("exportAllowlist names %s, which is not declared", name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests call it: move it into the tests, or allowlist it with a reason", name)
	}
}

// stdInterfaces returns every non-empty interface type the standard
// library packages reachable from pkgs export, plus the universe's error.
func stdInterfaces(pkgs []*LoadedPackage) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !inModule(p.Path()) {
			scope := p.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Pkg)
	}
	return out
}

// satisfiesStd reports whether fn is a method by which its receiver type
// implements one of ifaces.
func satisfiesStd(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
