package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"streamcache/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_small.sha256 and testdata/answers_small.txt from this build")

const (
	goldenPath = "testdata/golden_small.sha256"
	ledgerPath = "testdata/answers_small.txt"
)

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
	checkGolden(t, goldenPath, got.String(), "table bytes moved")
}

// checkGolden compares got with the golden file at path line by line,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path, got, moved string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines written, %s holds %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i, reported := 0, 0; i < len(gotLines) && i < len(wantLines) && reported < 20; i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s:\n got  %s\n want %s", moved, gotLines[i], wantLines[i])
			reported++
		}
	}
}

// TestAnswerLedger pins every simulated row's Metrics bit for bit: each
// key streams at SmallScale through one arena, as in TestGoldenTables,
// and every answer a row is formatted from is written in evaluation
// order as exact hex floats and compared with
// testdata/answers_small.txt. A CSV prints three or four digits, so a
// change in the last bits of a sum passes TestGoldenTables; it fails
// here. `-update` rewrites the file with the digests.
func TestAnswerLedger(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the ledger was recorded on amd64; GOARCH=%s may fuse float operations differently", runtime.GOARCH)
	}
	s := SmallScale()
	s.Arena = sim.NewArena()
	var got strings.Builder
	got.WriteString("# table n Requests TrafficReductionRatio AvgServiceDelay AvgStreamQuality TotalAddedValue HitRatio EvictedBytes EdgeByteFrac PeerByteFrac ParentByteFrac OriginByteFrac\n")
	for _, e := range Experiments() {
		p, err := e.build(s)
		if err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		n := 0
		record := func(pt planPoint) planPoint {
			if pt.cfg == nil {
				return pt
			}
			eval := pt.eval
			pt.eval = func(m sim.Metrics) ([]string, float64) {
				fmt.Fprintf(&got, "%s %d %d", e.Key, n, m.Requests)
				for _, f := range []float64{m.TrafficReductionRatio, m.AvgServiceDelay, m.AvgStreamQuality, m.TotalAddedValue, m.HitRatio} {
					got.WriteString(" " + strconv.FormatFloat(f, 'x', -1, 64))
				}
				fmt.Fprintf(&got, " %d", m.EvictedBytes)
				for _, f := range []float64{m.EdgeByteFrac, m.PeerByteFrac, m.ParentByteFrac, m.OriginByteFrac} {
					got.WriteString(" " + strconv.FormatFloat(f, 'x', -1, 64))
				}
				got.WriteString("\n")
				n++
				return eval(m)
			}
			return pt
		}
		for i := range p.coarse {
			p.coarse[i] = record(p.coarse[i])
		}
		if at := p.at; at != nil {
			p.at = func(coords []float64) (planPoint, error) {
				pt, err := at(coords)
				return record(pt), err
			}
		}
		if err := stream(s, p, &TableSink{}); err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
	}
	checkGolden(t, ledgerPath, got.String(), "an answer moved")
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
