package analysis

import (
	"bytes"
	"encoding/json"
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

// The loader gives mediavet fully type-checked packages without
// depending on golang.org/x/tools: `go list -export -deps -json`
// compiles (or reuses from the build cache) export data for every
// dependency, and go/importer's gc importer reads that export data via
// a lookup function.

// listedPackage is the subset of `go list -json` output mediavet needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct {
		Path string
	}
	Error *struct {
		Err string
	}
}

// goList runs `go list -export -deps -json` for patterns in dir.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=Dir,ImportPath,Export,GoFiles,Standard,Module,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// A Loader type-checks packages against a map of export-data files.
type Loader struct {
	Fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// NewLoader builds a loader over the given export-data map.
func NewLoader(exports map[string]string) *Loader {
	l := &Loader{Fset: token.NewFileSet(), exports: exports}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l
}

func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	f, ok := l.exports[path]
	if !ok || f == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

// A Package is one fully parsed and type-checked module package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Check parses and type-checks one package. goFiles are resolved
// relative to dir unless absolute. The driver passes go list's GoFiles,
// which holds no _test.go file: the invariants govern production code,
// and tests may hold a lock across a sleep or a channel operation.
func (l *Loader) Check(pkgPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(error) {}, // collect-all; first error returned below
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	return &Package{Path: pkgPath, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// loadModulePackages lists patterns in dir and returns (a) the module's
// own packages and (b) the combined export map covering every
// dependency.
func loadModulePackages(dir string, patterns []string) ([]*listedPackage, map[string]string, error) {
	all, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	exports := map[string]string{}
	var module []*listedPackage
	for _, p := range all {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if !p.Standard && p.Module != nil && len(p.GoFiles) > 0 {
			module = append(module, p)
		}
	}
	return module, exports, nil
}
