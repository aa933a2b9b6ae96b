package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamcache/internal/rowlog"
)

// TestJournalCompactResumeByteIdentical is the compaction acceptance
// contract: compacting a mid-sweep checkpoint changes nothing a resume
// can observe — the resumed run produces byte-identical output and the
// final journal holds every row exactly once — while the compacted file
// itself shrinks to one line per live record.
func TestJournalCompactResumeByteIdentical(t *testing.T) {
	for _, key := range []string{"figure5", "refined-e"} {
		t.Run(key, func(t *testing.T) {
			s := tinyScale()
			s.RefineBudget = 3
			dir := t.TempDir()
			path := filepath.Join(dir, "journal.jsonl")

			want := journaledStream(t, key, s, path, false)
			total := countJournalRows(t, path)

			// Kill mid-sweep, then compact the surviving prefix before
			// resuming — the operator workflow for long sweeps.
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, full[:len(full)*3/5], 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := ResumeJournal(path, s.Fingerprint())
			if err != nil {
				t.Fatal(err)
			}
			before := j.set.Table(j.soleTableName(t)).Len()
			j.Close()
			if got := countJournalRows(t, path); got != before {
				t.Fatalf("compacted journal holds %d rows, want the %d live before compaction", got, before)
			}

			got := journaledStream(t, key, s, path, true)
			if !bytes.Equal(got, want) {
				t.Errorf("resume after compaction differs from the uninterrupted run:\n%s\nwant:\n%s", got, want)
			}
			if n := countJournalRows(t, path); n != total {
				t.Errorf("final journal holds %d rows, want %d", n, total)
			}

			// Compacting the complete journal is idempotent: a second
			// compaction rewrites the identical bytes.
			j, err = ResumeJournal(path, s.Fingerprint())
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			once, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			j, err = ResumeJournal(path, s.Fingerprint())
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			twice, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once, twice) {
				t.Error("second compaction changed the journal bytes")
			}
		})
	}
}

// soleTableName returns the name of the journal's only table (test
// helper; the compaction tests journal exactly one experiment).
func (j *Journal) soleTableName(t *testing.T) string {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	names := j.set.Names()
	if len(names) != 1 {
		t.Fatalf("journal holds %d tables, want 1", len(names))
	}
	return names[0]
}

// TestJournalCompactCrashMidCompaction: a kill during compaction leaves
// either the untouched original (crash before the rename, with a stale
// partial .compact sibling) or the complete compacted file (crash
// after). Resume from both states must be byte-identical, and the stale
// sibling must not disturb — and must be overwritten by — a later
// compaction.
func TestJournalCompactCrashMidCompaction(t *testing.T) {
	key := "refined-e"
	s := tinyScale()
	s.RefineBudget = 3
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")

	want := journaledStream(t, key, s, path, false)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := full[:len(full)*3/5]

	// Crash before the rename: the original journal survives next to a
	// partial .compact tmp (here: half the bytes of a plausible rewrite).
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	stale := cut[:len(cut)/2]
	if err := os.WriteFile(path+".compact", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	got := journaledStream(t, key, s, path, true)
	if !bytes.Equal(got, want) {
		t.Error("resume beside a stale .compact tmp differs from the uninterrupted run")
	}

	// The stale tmp is ignored by resume and replaced wholesale by the
	// next compaction.
	j, err := ResumeJournal(path, s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("compaction left its tmp file behind (stat err %v)", err)
	}

	// Crash after the rename: the journal is exactly the compacted file.
	// Re-cut, compact, and resume — still byte-identical.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = ResumeJournal(path, s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	got = journaledStream(t, key, s, path, true)
	if !bytes.Equal(got, want) {
		t.Error("resume from a compacted checkpoint differs from the uninterrupted run")
	}
}

// TestJournalCompactMetricRecords: compaction keeps metric-only
// checkpoints (foreign points fetched through the exchange) that no row
// supersedes, drops the ones a row now covers, and stays appendable
// afterwards.
func TestJournalCompactMetricRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	meta := TableMeta{Name: "probe", Header: []string{"v"}}
	if err := j.apply(rowlog.TableRecord(meta, "")); err != nil {
		t.Fatal(err)
	}
	if err := j.apply(rowlog.MetricRecord("probe", 5, 1.25)); err != nil {
		t.Fatal(err)
	}
	if err := j.apply(rowlog.MetricRecord("probe", 2, 9.5)); err != nil {
		t.Fatal(err)
	}
	// Index 2's owner later emits the real row: the metric-only record
	// is now superseded.
	if err := j.apply(rowlog.RowRecord("probe", MetricRow{Index: 2, Row: []string{"a"}, Metric: 9.5, HasMetric: true})); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if j, err = ResumeJournal(path, "fp"); err != nil { // compacts as it opens
		t.Fatal(err)
	}
	// Appends after compaction land in the compacted file.
	if err := j.apply(rowlog.RowRecord("probe", MetricRow{Index: 7, Row: []string{"b"}})); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"type":"metric"`); n != 1 {
		t.Errorf("compacted journal holds %d metric records, want 1 (index 2 superseded by its row)\n%s", n, data)
	}

	r, err := ResumeJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if row, ok := r.replay("probe", 5); ok || !row.HasMetric || row.Metric != 1.25 {
		t.Errorf("replay(5) = %v,%v, want no row and metric 1.25", row, ok)
	}
	if row, ok := r.replay("probe", 2); !ok || !row.HasMetric || row.Metric != 9.5 {
		t.Errorf("replay(2) = %v,%v, want a row with metric 9.5", row, ok)
	}
	if row, ok := r.replay("probe", 7); !ok || row.Row[0] != "b" {
		t.Errorf("replay(7) = %v,%v, want the post-compaction append", row, ok)
	}
}
