package analysis

import (
	"cmp"
	"fmt"
	"go/token"
	"io"
	"slices"
	"strings"
)

// A Finding is a diagnostic that survived suppression, with its
// position resolved for printing.
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

// A Result summarises one run.
type Result struct {
	Findings   []Finding
	Suppressed int // diagnostics silenced by //mediavet:ignore
	Packages   int
}

// A Runner drives the analyzers over a module tree.
type Runner struct {
	Dir       string   // module directory; "" means current
	Patterns  []string // package patterns; default ./...
	Analyzers []*Analyzer
	Log       io.Writer // verbose progress; nil disables
}

// packageResult is what analyzing one package yields: its surviving
// findings and how many diagnostics its //mediavet:ignore directives
// silenced.
type packageResult struct {
	Suppressed int
	Findings   []Finding
}

// Run analyzes the requested packages, each on its own, applying
// //mediavet:ignore suppression and reporting stale or malformed ignore
// directives as findings of the pseudo-analyzer "mediavet".
func (r *Runner) Run() (*Result, error) {
	patterns := r.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	module, exports, err := loadModulePackages(r.Dir, patterns)
	if err != nil {
		return nil, err
	}
	loader := NewLoader(exports)
	res := &Result{Packages: len(module)}

	for _, lp := range module {
		pkgPath := lp.ImportPath
		pkg, err := loader.Check(pkgPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		ent, err := analyzePackage(pkg, loader.Fset, r.Analyzers)
		if err != nil {
			return nil, err
		}
		res.Findings = append(res.Findings, ent.Findings...)
		res.Suppressed += ent.Suppressed
		if r.Log != nil {
			fmt.Fprintf(r.Log, "mediavet: %s (%d findings, %d suppressed)\n", pkgPath, len(ent.Findings), ent.Suppressed)
		}
	}
	sortFindings(res.Findings)
	return res, nil
}

// analyzePackage runs every analyzer over one type-checked package.
func analyzePackage(pkg *Package, fset *token.FileSet, analyzers []*Analyzer) (*packageResult, error) {
	sup := newSuppressor(fset, pkg.Files)
	ent := &packageResult{}
	for _, a := range analyzers {
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
		for _, d := range pass.diags {
			if sup.suppressed(a.Name, d.Pos) {
				ent.Suppressed++
				continue
			}
			p := fset.Position(d.Pos)
			ent.Findings = append(ent.Findings, Finding{
				Analyzer: a.Name, File: p.Filename, Line: p.Line, Col: p.Column, Message: d.Message,
			})
		}
	}
	// Directives that suppressed nothing are findings of the driver's own.
	add := func(ig *Ignore, format string, args ...any) {
		ent.Findings = append(ent.Findings, Finding{
			Analyzer: "mediavet", File: ig.File, Line: ig.Line, Col: 1, Message: fmt.Sprintf(format, args...),
		})
	}
	stale, malformed := sup.unused()
	for _, ig := range malformed {
		add(ig, "malformed //mediavet:ignore directive: %s", ig.Malformed)
	}
	for _, ig := range stale {
		if !slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a.Name == ig.Analyzer }) {
			add(ig, "//mediavet:ignore names unknown analyzer %q", ig.Analyzer)
			continue
		}
		add(ig, "stale //mediavet:ignore %s (%s): no diagnostic here to suppress", ig.Analyzer, ig.Reason)
	}
	return ent, nil
}

func sortFindings(fs []Finding) {
	slices.SortFunc(fs, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), strings.Compare(a.Message, b.Message))
	})
}
