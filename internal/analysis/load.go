package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// load.go is the self-contained package loader behind p2lint: the module
// bakes in no golang.org/x/tools dependency, so instead of go/packages it
// drives `go list -export -json -deps` for the build graph and typechecks
// the module's own packages from source with go/types, resolving standard-
// library imports through the compiler export data `go list -export`
// places in the build cache. Only non-test GoFiles are analyzed — the
// invariants guard the engine, and tests legitimately time, print and
// shuffle.

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct {
		Err string
	}
}

// LoadedPackage is one typechecked package ready for analysis.
type LoadedPackage struct {
	Path      string
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Annot     *Annotations
	// TypeErrors holds soft typechecking failures (fixture packages may
	// deliberately not compile under vet-grade strictness).
	TypeErrors []error
}

// Loader typechecks build-graph packages on demand.
type Loader struct {
	Fset *token.FileSet
	// Dir is the working directory `go list` runs in ("" = current).
	Dir string
	// Lenient tolerates type errors in analyzed packages (fixture mode).
	Lenient bool

	pkgs    map[string]*types.Package // by import path, source or export
	exports map[string]string         // import path -> export data file
	gc      types.ImporterFrom
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{Fset: token.NewFileSet(), Dir: dir, pkgs: map[string]*types.Package{}, exports: map[string]string{}}
	l.gc = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := l.exports[path]
		if !ok || exp == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}).(types.ImporterFrom)
	return l
}

// Import resolves one import path for go/types: module packages come from
// the source-typechecked cache, everything else from compiler export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, err := l.gc.Import(path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Load lists patterns with their full dependency graph and typechecks
// every non-standard package from source in dependency order, returning
// the packages the patterns name (build-graph-only dependencies are
// typechecked but not returned).
func (l *Loader) Load(patterns ...string) ([]*LoadedPackage, error) {
	listed, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var out []*LoadedPackage
	for _, lp := range listed {
		if lp.Standard {
			if lp.Export != "" {
				l.exports[lp.ImportPath] = lp.Export
			}
			continue
		}
		if lp.Error != nil && !l.Lenient {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		loaded, err := l.typecheck(lp)
		if err != nil {
			return nil, err
		}
		if !lp.DepOnly {
			out = append(out, loaded)
		}
	}
	return out, nil
}

// goList runs `go list -e -export -json -deps` over the patterns. -deps
// lists dependencies before dependents, which is exactly the order
// typecheck needs; -export materializes compiler export data for the
// standard library in the build cache.
func (l *Loader) goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// typecheck parses and typechecks one module package from source.
func (l *Loader) typecheck(lp listedPackage) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(lp.ImportPath, l.Fset, files, info)
	if err != nil && !l.Lenient {
		return nil, fmt.Errorf("typecheck %s: %w", lp.ImportPath, err)
	}
	if pkg != nil {
		l.pkgs[lp.ImportPath] = pkg
	}
	return &LoadedPackage{
		Path:       lp.ImportPath,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		Annot:      parseAnnotations(l.Fset, files),
		TypeErrors: typeErrs,
	}, nil
}

// Run loads the patterns and applies every analyzer to each package it
// accepts, returning the position-sorted diagnostics.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l := NewLoader(dir)
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	if err := analyze(l.Fset, pkgs, analyzers, &diags); err != nil {
		return nil, err
	}
	sortDiagnostics(diags)
	return diags, nil
}

// analyze is the shared driver body behind Run and the fixture harness:
// run each accepting analyzer over each package.
func analyze(fset *token.FileSet, pkgs []*LoadedPackage, analyzers []*Analyzer, diags *[]Diagnostic) error {
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
				Annot:     pkg.Annot,
				diags:     diags,
			}
			if err := a.Run(pass); err != nil {
				return fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	return nil
}
