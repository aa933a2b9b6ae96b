package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"streamcache/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_small.sha256 from this build's tables")

const goldenPath = "testdata/golden_small.sha256"

// TestGoldenTables pins every registered table's CSV bytes across
// commits: each key streams at SmallScale (seed 1) through a CSVSink
// and its sha256 and row count must match the committed digest file.
// The other determinism tests compare a build with itself (across
// Parallelism, shards, resume); this one compares it with the build the
// file was recorded from, so a refactor of the engine or of a builder
// cannot move a figure unnoticed. A deliberate change to a table
// regenerates the file with `go test ./internal/experiments -run
// TestGoldenTables -update`. Float formatting of the simulator's sums
// is only pinned on the architecture the file was recorded on.
func TestGoldenTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64; GOARCH=%s may fuse float operations differently", runtime.GOARCH)
	}
	s := SmallScale()
	s.Arena = sim.NewArena()
	var got strings.Builder
	for _, e := range Experiments() {
		var csv bytes.Buffer
		var rows TableSink
		if err := e.Stream(s, MultiSink{NewCSVSink(&csv), &rows}); err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		fmt.Fprintf(&got, "%s %x %d\n", e.Key, sha256.Sum256(csv.Bytes()), len(rows.Table().Rows))
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d tables streamed, %s lists %d", len(gotLines)-1, goldenPath, len(wantLines)-1)
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("table bytes moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// TestExperimentsDocListsEveryKey keeps EXPERIMENTS.md's summary table
// in step with the registry: every key has a `key` row, and no row
// names a key the registry does not know. `make docs-check` runs it.
func TestExperimentsDocListsEveryKey(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, summary, ok := strings.Cut(string(doc), "## Summary: paper anchors")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no \"## Summary: paper anchors\" section")
	}
	summary, _, _ = strings.Cut(summary, "\n## ")
	listed := map[string]bool{}
	for _, line := range strings.Split(summary, "\n") {
		if key, _, ok := strings.Cut(strings.TrimPrefix(line, "| `"), "` |"); ok && strings.HasPrefix(line, "| `") {
			if listed[key] {
				t.Errorf("summary table lists `%s` twice", key)
			}
			listed[key] = true
		}
	}
	for _, e := range Experiments() {
		if !listed[e.Key] {
			t.Errorf("registry key %q has no row in EXPERIMENTS.md's summary table", e.Key)
		}
		delete(listed, e.Key)
	}
	for key := range listed {
		t.Errorf("EXPERIMENTS.md's summary table lists `%s`, which is not a registry key", key)
	}
}
