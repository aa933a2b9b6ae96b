package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunnerTwoPackageModule drives Runner — go list, the loader and
// every analyzer — over a temp module of two packages. The dependent's
// hot function calls one annotated and one unannotated function of the
// dependency: only the second is a finding, which proves the
// //mediavet:hotpath fact crossed the package boundary, and that needs
// the dependency analyzed first. The stale //mediavet:ignore is the
// finding the driver itself adds once every analyzer has run.
func TestRunnerTwoPackageModule(t *testing.T) {
	// The module has no requirements; keep go list from ever reaching
	// for the network or another toolchain.
	t.Setenv("GOPROXY", "off")
	t.Setenv("GOTOOLCHAIN", "local")

	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module "+ModulePath+"\n\ngo 1.24\n")
	// The dependent sorts before its dependency by import path, so an
	// alphabetical walk would analyze it first and lose the fact.
	write("internal/zdep/zdep.go", `package zdep

//mediavet:hotpath
func Hot(x int) int { return x + 1 }

func Cold(x int) int { return x + 2 }
`)
	write("internal/auser/auser.go", `package auser

import "streamcache/internal/zdep"

//mediavet:hotpath
func Serve(x int) int {
	return zdep.Hot(x) + zdep.Cold(x)
}

func Idle(x int) int {
	//mediavet:ignore hotpath nothing on the next line allocates
	return x
}
`)

	res, err := (&Runner{Dir: dir, Analyzers: All()}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages != 2 || res.Suppressed != 0 {
		t.Errorf("packages=%d suppressed=%d, want 2 and 0", res.Packages, res.Suppressed)
	}
	want := []struct {
		analyzer string
		line     int
		message  string
	}{
		{"hotpath", 7, "zdep.Cold"},
		{"mediavet", 11, "stale //mediavet:ignore hotpath"},
	}
	if len(res.Findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(res.Findings), len(want), res.Findings)
	}
	for i, w := range want {
		f := res.Findings[i]
		if f.Analyzer != w.analyzer || f.Line != w.line || filepath.Base(f.File) != "auser.go" ||
			!strings.Contains(f.Message, w.message) {
			t.Errorf("finding %d = %s, want %s at auser.go:%d mentioning %q", i, f, w.analyzer, w.line, w.message)
		}
	}
}
