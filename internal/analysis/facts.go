package analysis

import (
	"go/token"
	"go/types"
	"reflect"
)

// facts.go is the cross-function layer of the suite: a Module view over
// every package a run loads, a per-object fact store analyzers publish and
// consume (mirroring golang.org/x/tools/go/analysis Facts, stdlib-only),
// and the module-wide call graph built on top of it. The single-package
// analyzers of PR 7 see one package at a time; ctxflow needs whole-module
// reasoning — a caller in plan.go threading a context into a callee in
// rerank.go — and this file is where that view lives.
//
// Fact identity rides on go/types object identity: the Loader typechecks
// every module package through one shared package cache, so the
// *types.Func for plan.Run is the same pointer whether it is seen from its
// declaring package or through an import. Facts are keyed by
// (types.Object, concrete fact type), exactly the x/tools contract.

// Fact is a datum one analyzer attaches to a types.Object for another
// (or a later phase of itself) to consume. Implementations are pointers
// to concrete types; AFact is the marker method.
type Fact interface {
	AFact()
}

// factKey addresses one fact: the object it decorates plus the concrete
// fact type, so different analyzers' facts on the same object coexist.
type factKey struct {
	obj types.Object
	typ reflect.Type
}

// Module is the whole-run view: every loaded package, the shared fact
// store, and the derived call graph.
type Module struct {
	Fset     *token.FileSet
	Packages []*LoadedPackage
	// CallGraph is the intra-module static call graph (callgraph.go).
	CallGraph *CallGraph

	byPath map[string]*LoadedPackage
	// byFile maps a source filename to its package, for cross-package
	// position lookups (annotations).
	byFile map[string]*LoadedPackage
	facts  map[factKey]Fact
}

// BuildModule assembles the module view over pkgs and derives the call
// graph. Analyzer Collect hooks run afterwards, in the driver (load.go
// Run, fixtures_test.go RunFixture).
func BuildModule(fset *token.FileSet, pkgs []*LoadedPackage) *Module {
	m := &Module{
		Fset:     fset,
		Packages: pkgs,
		byPath:   map[string]*LoadedPackage{},
		byFile:   map[string]*LoadedPackage{},
		facts:    map[factKey]Fact{},
	}
	for _, pkg := range pkgs {
		m.byPath[pkg.Path] = pkg
		for _, f := range pkg.Files {
			m.byFile[fset.Position(f.Pos()).Filename] = pkg
		}
	}
	m.CallGraph = buildCallGraph(m)
	return m
}

// ExportObjectFact publishes fact on obj. fact must be a pointer; the
// stored value is the pointer itself (facts are immutable by convention
// once published).
func (m *Module) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		return
	}
	m.facts[factKey{obj, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact of fact's concrete type on obj into
// *fact and reports whether one was published. fact must be a non-nil
// pointer to the concrete type used at export.
func (m *Module) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	stored, ok := m.facts[factKey{obj, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// Package returns the loaded package with the given import path, or nil.
func (m *Module) Package(path string) *LoadedPackage {
	return m.byPath[path]
}

// PackageAt returns the loaded package owning the file at pos, or nil for
// positions outside the module (export-data packages have no source here).
func (m *Module) PackageAt(pos token.Pos) *LoadedPackage {
	return m.byFile[m.Fset.Position(pos).Filename]
}

// Covers reports whether a //p2: marker of kind mk is in effect at pos,
// resolving the owning package by filename — the cross-package counterpart
// of Annotations.Covers for analyzers that report at positions outside the
// pass's own package.
func (m *Module) Covers(pos token.Pos, mk Marker) bool {
	pkg := m.PackageAt(pos)
	return pkg != nil && pkg.Annot.Covers(pos, mk)
}

// DefinedInModule reports whether obj is declared in one of the loaded
// module packages (as opposed to a dependency resolved from export data).
func (m *Module) DefinedInModule(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return m.byPath[obj.Pkg().Path()] != nil
}
