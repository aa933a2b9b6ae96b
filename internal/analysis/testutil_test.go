package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The test harness mirrors x/tools' analysistest: each testdata/<name>
// directory is one synthetic package, type-checked under a caller
// chosen import path (so package-scoped analyzers see the paths they
// guard), and every `// want "regexp"` comment asserts a diagnostic on
// its line. Diagnostics without a want, and wants without a
// diagnostic, both fail the test.

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantSpec struct {
	re   *regexp.Regexp
	line int
	hit  bool
}

// stdlibExports runs `go list -export` over the named stdlib imports
// (plus transitive deps) and returns the export-data map.
func stdlibExports(t *testing.T, imports []string) map[string]string {
	t.Helper()
	if len(imports) == 0 {
		return map[string]string{}
	}
	pkgs, err := goList(".", imports)
	if err != nil {
		t.Fatalf("listing stdlib deps: %v", err)
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports
}

// runTestdata analyzes testdata/<dir> as package pkgPath with one
// analyzer and checks findings against the // want comments.
func runTestdata(t *testing.T, a *Analyzer, dir, pkgPath string) {
	t.Helper()
	root := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading %s: %v", root, err)
	}
	var goFiles []string
	importSet := map[string]bool{}
	impFset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		goFiles = append(goFiles, e.Name())
		f, err := parser.ParseFile(impFset, filepath.Join(root, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	sort.Strings(goFiles)
	var imports []string
	for imp := range importSet {
		imports = append(imports, imp)
	}
	sort.Strings(imports)

	loader := NewLoader(stdlibExports(t, imports))
	pkg, err := loader.Check(pkgPath, root, goFiles)
	if err != nil {
		t.Fatalf("type-checking %s: %v", root, err)
	}

	findings, err := analyzePackage(pkg, loader.Fset, a)
	if err != nil {
		t.Fatal(err)
	}

	// Collect want expectations per file:line.
	wants := map[string][]*wantSpec{} // file base name -> specs
	for _, name := range goFiles {
		path := filepath.Join(root, name)
		data, _ := os.ReadFile(path)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(arg[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				wants[name] = append(wants[name], &wantSpec{re: re, line: i + 1})
			}
		}
	}

	for _, f := range findings {
		base := filepath.Base(f.File)
		matched := false
		for _, w := range wants[base] {
			if w.line == f.Line && !w.hit && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding %s:%d:%d: %s: %s", base, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	for name, specs := range wants {
		for _, w := range specs {
			if !w.hit {
				t.Errorf("%s:%d: no finding matched want %q", name, w.line, w.re)
			}
		}
	}
}
