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

var update = flag.Bool("update", false, "rewrite the golden files under testdata from this build")

const (
	goldenPath      = "testdata/golden_small.sha256"
	ledgerPath      = "testdata/answers_small.txt"
	paperGoldenPath = "testdata/golden_paper.sha256"
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
	tables, _ := goldens(t, SmallScale())
	checkGolden(t, goldenPath, tables, "table bytes moved")
}

// TestAnswerLedger pins every simulated row's Metrics bit for bit: each
// key streams at SmallScale through one arena, as in TestGoldenTables,
// and every answer a row is formatted from is written in evaluation
// order as exact hex floats and compared with
// testdata/answers_small.txt. A CSV prints three or four digits, so a
// change in the last bits of a sum passes TestGoldenTables; it fails
// here. `-update` rewrites the file with the digests.
func TestAnswerLedger(t *testing.T) {
	_, answers := goldens(t, SmallScale())
	checkGolden(t, ledgerPath, answers, "an answer moved")
}

// TestPaperScale is both goldens at PaperScale, the scale the reported
// tables are run at: every table's digest and row count, then one line
// with the digest and line count of the answer ledger, which is too
// large to review as text. Paper scale reaches what small scale does
// not (ten runs, five sigma levels, refinement points five to eight),
// and the run takes tens of seconds, so it is skipped unless PAPER=1;
// `make paper-check` sets it. `PAPER=1 go test ./internal/experiments
// -run TestPaperScale -update` rewrites the file.
func TestPaperScale(t *testing.T) {
	if os.Getenv("PAPER") != "1" {
		t.Skip("paper scale runs only with PAPER=1 (make paper-check)")
	}
	tables, answers := goldens(t, PaperScale())
	got := fmt.Sprintf("%sanswers %x %d\n", tables, sha256.Sum256([]byte(answers)), strings.Count(answers, "\n"))
	checkGolden(t, paperGoldenPath, got, "a paper-scale table or answer moved")
}

// goldens streams every registered table at s through one arena and
// returns the table digests (per table: key, sha256 of its CSV bytes,
// row count) and the answer ledger (every simulated row's Metrics in
// evaluation order, as exact hex floats under a header line).
func goldens(t *testing.T, s Scale) (tables, answers string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens were recorded on amd64; GOARCH=%s may fuse float operations differently", runtime.GOARCH)
	}
	s.Arena = sim.NewArena()
	var digests, ledger strings.Builder
	ledger.WriteString("# table n Requests TrafficReductionRatio AvgServiceDelay AvgStreamQuality TotalAddedValue HitRatio EvictedBytes EdgeByteFrac PeerByteFrac ParentByteFrac OriginByteFrac\n")
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
				fmt.Fprintf(&ledger, "%s %d %d", e.Key, n, m.Requests)
				for _, f := range []float64{m.TrafficReductionRatio, m.AvgServiceDelay, m.AvgStreamQuality, m.TotalAddedValue, m.HitRatio} {
					ledger.WriteString(" " + strconv.FormatFloat(f, 'x', -1, 64))
				}
				fmt.Fprintf(&ledger, " %d", m.EvictedBytes)
				for _, f := range []float64{m.EdgeByteFrac, m.PeerByteFrac, m.ParentByteFrac, m.OriginByteFrac} {
					ledger.WriteString(" " + strconv.FormatFloat(f, 'x', -1, 64))
				}
				ledger.WriteString("\n")
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
		var csv bytes.Buffer
		var rows TableSink
		if err := stream(s, p, MultiSink{NewCSVSink(&csv), &rows}); err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		fmt.Fprintf(&digests, "%s %x %d\n", e.Key, sha256.Sum256(csv.Bytes()), len(rows.Table().Rows))
	}
	return digests.String(), ledger.String()
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
