package analysis

import (
	"fmt"
	"go/token"
	"io"
	"sort"
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

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// packageResult is what analyzing one package yields: the facts it
// exports to dependents, its surviving findings and how many
// diagnostics its //mediavet:ignore directives silenced.
type packageResult struct {
	Facts      *Facts
	Suppressed int
	Findings   []Finding
}

// Run analyzes the requested packages in dependency order, threading
// hotpath facts from imports to importers, applying //mediavet:ignore
// suppression, and reporting stale or malformed ignore directives as
// findings of the pseudo-analyzer "mediavet".
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
	facts := NewFacts()
	res := &Result{Packages: len(module)}

	for _, lp := range module {
		pkgPath := lp.ImportPath
		pkg, err := loader.Check(pkgPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		ent, err := analyzePackage(pkg, loader.Fset, r.Analyzers, facts)
		if err != nil {
			return nil, err
		}
		facts.Merge(ent.Facts)
		res.Findings = append(res.Findings, ent.Findings...)
		res.Suppressed += ent.Suppressed
		r.logf("mediavet: %s (%d findings, %d suppressed)", pkgPath, len(ent.Findings), ent.Suppressed)
	}
	sortFindings(res.Findings)
	return res, nil
}

// analyzePackage runs every analyzer over one type-checked package.
// depFacts holds facts from already-analyzed dependencies; the
// package's own annotations are merged in before analyzers run. The
// returned result's Facts contains only this package's own annotations
// (what it exports to dependents).
func analyzePackage(pkg *Package, fset *token.FileSet, analyzers []*Analyzer, depFacts *Facts) (*packageResult, error) {
	own := CollectHotpathFacts(pkg.Path, pkg.Files)
	merged := NewFacts()
	merged.Merge(depFacts)
	merged.Merge(own)

	sup := newSuppressor(fset, pkg.Files)
	ent := &packageResult{Facts: own}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			PkgPath:  pkg.Path,
			Info:     pkg.Info,
			Facts:    merged,
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
	stale, malformed := sup.unused()
	for _, ig := range malformed {
		ent.Findings = append(ent.Findings, Finding{
			Analyzer: "mediavet", File: ig.File, Line: ig.Line, Col: 1,
			Message: fmt.Sprintf("malformed //mediavet:ignore directive: %s", ig.Malformed),
		})
	}
	for _, ig := range stale {
		if !knownAnalyzer(analyzers, ig.Analyzer) {
			ent.Findings = append(ent.Findings, Finding{
				Analyzer: "mediavet", File: ig.File, Line: ig.Line, Col: 1,
				Message: fmt.Sprintf("//mediavet:ignore names unknown analyzer %q", ig.Analyzer),
			})
			continue
		}
		ent.Findings = append(ent.Findings, Finding{
			Analyzer: "mediavet", File: ig.File, Line: ig.Line, Col: 1,
			Message: fmt.Sprintf("stale //mediavet:ignore %s (%s): no diagnostic here to suppress", ig.Analyzer, ig.Reason),
		})
	}
	return ent, nil
}

func knownAnalyzer(analyzers []*Analyzer, name string) bool {
	for _, a := range analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}
