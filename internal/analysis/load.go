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
// drives `go list -e -export -json -deps` for the build graph and
// typechecks the packages the patterns name from source with go/types.
// Every import, standard library and module alike, resolves through the
// compiler export data that same call places in the build cache, so no
// dependency is typechecked from source. Only non-test GoFiles are
// analyzed — the invariants guard the engine, and tests legitimately
// time, print and shuffle.

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	Dir        string
	ImportPath string
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
}

// Load lists the patterns with their full dependency graph, run in dir
// ("" = the current directory), and typechecks the packages the patterns
// name. A listing, parse or type error in one of them fails the load with
// the package named; a dependency that did not compile has no export data,
// so importing it is the type error.
func Load(dir string, patterns ...string) (*token.FileSet, []*LoadedPackage, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	exports := map[string]string{}
	for _, lp := range listed {
		exports[lp.ImportPath] = lp.Export
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	var out []*LoadedPackage
	for _, lp := range listed {
		if lp.DepOnly {
			continue
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		loaded, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, loaded)
	}
	return fset, out, nil
}

// goList runs `go list -e -export -json -deps` over the patterns in dir.
// -export compiles every listed package, dependencies included, and names
// its export data file.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
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

// typecheck parses and typechecks one package from source.
func typecheck(fset *token.FileSet, imp types.Importer, lp listedPackage) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
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
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", lp.ImportPath, err)
	}
	return &LoadedPackage{
		Path:      lp.ImportPath,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Annot:     parseAnnotations(fset, files),
	}, nil
}

// Run loads the patterns and applies every analyzer to each package it
// accepts, returning the position-sorted diagnostics.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	fset, pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	if err := analyze(fset, pkgs, analyzers, &diags); err != nil {
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
