package analysis

import "testing"

func TestDeterminismAnalyzer(t *testing.T) {
	runTestdata(t, Determinism, "determinism", ModulePath+"/internal/sim")
}

func TestDeterminismSkipsUnscopedPackages(t *testing.T) {
	// The same fixture type-checked under a non-deterministic package
	// path must produce zero findings: scoping is the contract.
	loader := NewLoader(stdlibExports(t, []string{"math/rand", "sort", "time"}))
	pkg, err := loader.Check(ModulePath+"/internal/par", "testdata/determinism", []string{"determinism.go"})
	if err != nil {
		t.Fatal(err)
	}
	ent, err := analyzePackage(pkg, loader.Fset, []*Analyzer{Determinism})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ent.Findings {
		if f.Analyzer == Determinism.Name {
			t.Errorf("unexpected finding outside deterministic scope: %s", f)
		}
	}
}
