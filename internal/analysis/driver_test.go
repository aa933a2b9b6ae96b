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
// finding the driver itself adds once every analyzer has run, as are
// the three about directives it cannot parse or place.
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

//mediavet:ignore
func NoName(x int) int { return x }

//mediavet:ignore hotpath
func NoReason(x int) int { return x }

//mediavet:ignore nosuch the analyzer it names does not exist
func Unknown(x int) int { return x }

//mediavet:ignoreX is some other directive and none of mediavet's business
func Other(x int) int { return x }
`)
	write("internal/auser/auser.go", `package auser

import "streamcache/internal/zdep"

//mediavet:hotpath
func Serve(x int) int {
	return zdep.Hot(x) + zdep.Cold(x) + zdep.Cold(x)
}

func Idle(x int) int {
	//mediavet:ignore hotpath nothing on the next line allocates
	return x
}
`)

	var log strings.Builder
	res, err := (&Runner{Dir: dir, Analyzers: All(), Log: &log}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages != 2 || res.Suppressed != 0 {
		t.Errorf("packages=%d suppressed=%d, want 2 and 0", res.Packages, res.Suppressed)
	}
	if !strings.Contains(log.String(), "internal/auser (3 findings") {
		t.Errorf("progress log = %q, want a line for internal/auser", log.String())
	}
	// Sorted by file, line, then column: the driver's own findings about the
	// directives it could not use come out beside the analyzers'.
	want := []string{
		"auser.go:7:23: hotpath: call to streamcache/internal/zdep.Cold",
		"auser.go:7:38: hotpath: call to streamcache/internal/zdep.Cold",
		"auser.go:11:1: mediavet: stale //mediavet:ignore hotpath",
		"zdep.go:8:1: mediavet: malformed //mediavet:ignore directive: missing analyzer name and reason",
		"zdep.go:11:1: mediavet: malformed //mediavet:ignore directive: missing reason",
		`zdep.go:14:1: mediavet: //mediavet:ignore names unknown analyzer "nosuch"`,
	}
	if len(res.Findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(res.Findings), len(want), res.Findings)
	}
	for i, w := range want {
		got := res.Findings[i]
		got.File = filepath.Base(got.File)
		if !strings.HasPrefix(got.String(), w) {
			t.Errorf("finding %d = %s, want it to start %s", i, got, w)
		}
	}
}
