package analysis

import (
	"cmp"
	"fmt"
	"go/token"
	"io"
	"slices"
	"strings"
)

// A Finding is one diagnostic with its position resolved for printing.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// A Runner drives Shardlock over a module tree.
type Runner struct {
	Dir      string    // module directory; "" means current
	Patterns []string  // package patterns; default ./...
	Log      io.Writer // verbose progress; nil disables
}

// Run analyzes the requested packages, each on its own, and returns
// the findings sorted by position.
func (r *Runner) Run() ([]Finding, error) {
	patterns := r.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	module, exports, err := loadModulePackages(r.Dir, patterns)
	if err != nil {
		return nil, err
	}
	loader := NewLoader(exports)
	var findings []Finding
	for _, lp := range module {
		pkg, err := loader.Check(lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		fs, err := analyzePackage(pkg, loader.Fset, Shardlock)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
		if r.Log != nil {
			fmt.Fprintf(r.Log, "mediavet: %s (%d findings)\n", lp.ImportPath, len(fs))
		}
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), strings.Compare(a.Message, b.Message))
	})
	return findings, nil
}

// analyzePackage runs one analyzer over one type-checked package.
func analyzePackage(pkg *Package, fset *token.FileSet, a *Analyzer) ([]Finding, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		PkgPath:  pkg.Path,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
	}
	return pass.findings, nil
}
