package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunnerTwoPackageModule drives Runner — go list, the loader and
// every analyzer — over a temp module of two packages, one importing
// the other. The wall-clock read is an analyzer's finding, the one
// under a well-formed //mediavet:ignore is counted as suppressed, and
// the stale ignore is the finding the driver itself adds once every
// analyzer has run, as are the three about directives it cannot parse
// or place.
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
	write("internal/zdep/zdep.go", `package zdep

func Cold(x int) int { return x + 2 }

//mediavet:ignore
func NoName(x int) int { return x }

//mediavet:ignore determinism
func NoReason(x int) int { return x }

//mediavet:ignore nosuch the analyzer it names does not exist
func Unknown(x int) int { return x }

//mediavet:ignoreX is some other directive and none of mediavet's business
func Other(x int) int { return x }
`)
	write("internal/sim/sim.go", `package sim

import (
	"time"

	"streamcache/internal/zdep"
)

func Serve(x int) int {
	//mediavet:ignore determinism telemetry only in this fixture
	_ = time.Now()
	return zdep.Cold(x) + int(time.Now().Unix())
}

func Idle(x int) int {
	//mediavet:ignore determinism nothing on the next line reads a clock
	return x
}
`)

	var log strings.Builder
	res, err := (&Runner{Dir: dir, Analyzers: All(), Log: &log}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages != 2 || res.Suppressed != 1 {
		t.Errorf("packages=%d suppressed=%d, want 2 and 1", res.Packages, res.Suppressed)
	}
	if !strings.Contains(log.String(), "internal/sim (2 findings, 1 suppressed)") {
		t.Errorf("progress log = %q, want a line for internal/sim", log.String())
	}
	// Sorted by file, line, then column: the driver's own findings about the
	// directives it could not use come out beside the analyzers'.
	want := []string{
		"sim.go:12:28: determinism: time.Now reads the wall clock",
		"sim.go:16:1: mediavet: stale //mediavet:ignore determinism",
		"zdep.go:5:1: mediavet: malformed //mediavet:ignore directive: missing analyzer name and reason",
		"zdep.go:8:1: mediavet: malformed //mediavet:ignore directive: missing reason",
		`zdep.go:11:1: mediavet: //mediavet:ignore names unknown analyzer "nosuch"`,
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
