package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the internal functions and methods that only
// tests call and that stay anyway, each with its reason.
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

// fieldAllowlist names the internal struct fields that no non-test Go
// reads and that stay anyway, each with its reason.
var fieldAllowlist = map[string]string{
	"p2/internal/plan.memoKey.sig":      "map key, read by the map's ==",
	"p2/internal/plan.memoKey.maxSize":  "map key, read by the map's ==",
	"p2/internal/eval.candKey.mi":       "map key, read by the map's ==",
	"p2/internal/eval.candKey.pi":       "map key, read by the map's ==",
	"p2/internal/plan.PanicError.Stack": "diagnostic payload documented for library callers",
}

// module is the one module load the scans of this file share.
var module struct {
	once sync.Once
	fset *token.FileSet
	pkgs []*LoadedPackage
	err  error
}

// loadModule returns the module's non-test Go, loaded and typechecked on
// first call.
func loadModule(t *testing.T) (*token.FileSet, []*LoadedPackage) {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	module.once.Do(func() { module.fset, module.pkgs, module.err = Load("../..", "./...") })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.fset, module.pkgs
}

// TestNoTestOnlyExports keeps test oracles in tests: every function or
// method declared under p2/internal/ must have a use in the module's
// non-test Go (root, cmd/, bench/, examples/, scripts/ and the internal
// packages themselves) outside its own declaration. A method that
// satisfies a standard-library interface (String, Error, flag.Value's Set,
// ...) counts as used. The rest either goes or joins exportAllowlist with
// a reason.
func TestNoTestOnlyExports(t *testing.T) {
	fset, pkgs := loadModule(t)
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
				if !ok || fd.Name.Name == "init" {
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
		t.Errorf("%s has no non-test use: delete it or move it into the tests, or allowlist it with a reason", name)
	}
}

// TestNoWriteOnlyFields keeps data a program reads: every field of a
// struct declared under p2/internal/ must be read by the module's non-test
// Go. A read is any use of the field other than the key of a keyed
// composite literal or the left side of a plain = (so x.f++ and x.f += 1
// read); a json tag other than "-" counts as one, since the encoder reads
// the field. Embedded fields are exempt: their use is the promotion. The
// rest either goes or joins fieldAllowlist with a reason.
func TestNoWriteOnlyFields(t *testing.T) {
	fset, pkgs := loadModule(t)
	// A field reached from another package is that package's import of
	// it, a different object whose export data keeps the declaring file
	// and line but not the column, so fields are keyed by those and name.
	type fieldKey struct {
		file string
		line int
		name string
	}
	keyOf := func(v *types.Var) fieldKey {
		pos := fset.Position(v.Pos())
		return fieldKey{pos.Filename, pos.Line, v.Name()}
	}
	fields := map[fieldKey]string{}
	read := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "p2/internal/") {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.Name == "_" {
								continue
							}
							name := p.Path + "." + ts.Name.Name + "." + id.Name
							fields[keyOf(p.TypesInfo.Defs[id].(*types.Var))] = name
							if fl.Tag != nil {
								tag, _ := strconv.Unquote(fl.Tag.Value)
								if j, ok := reflect.StructTag(tag).Lookup("json"); ok && j != "-" {
									read[name] = true
								}
							}
						}
					}
					return true
				})
				return false
			})
		}
	}
	for _, p := range pkgs {
		writes := map[*ast.Ident]bool{}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
						break
					}
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							writes[sel.Sel] = true
						}
					}
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writes[id] = true
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.TypesInfo.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				if name, ok := fields[keyOf(v.Origin())]; ok {
					read[name] = true
				}
			}
		}
	}
	declared := map[string]bool{}
	var unread []string
	for _, name := range fields {
		declared[name] = true
		if read[name] {
			if _, ok := fieldAllowlist[name]; ok {
				t.Errorf("%s is read by a program now; drop it from fieldAllowlist", name)
			}
		} else if _, ok := fieldAllowlist[name]; !ok {
			unread = append(unread, name)
		}
	}
	for name := range fieldAllowlist {
		if !declared[name] {
			t.Errorf("fieldAllowlist names %s, which is not declared", name)
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("%s is written but no program reads it: delete it, or allowlist it with a reason", name)
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
