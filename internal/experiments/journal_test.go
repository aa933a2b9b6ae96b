package experiments

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"streamcache/internal/rowlog"
	"streamcache/internal/sim"
)

// journaledStream runs one experiment journaled at path, a fresh journal
// or a resumed one, returning the CSV bytes.
func journaledStream(t *testing.T, key string, s Scale, path string, resume bool) []byte {
	t.Helper()
	var j *Journal
	var err error
	if resume {
		j, err = ResumeJournal(path, s.Fingerprint())
	} else {
		j, err = CreateJournal(path, s.Fingerprint())
	}
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s.Journal = j
	var csv bytes.Buffer
	if err := Stream(key, s, NewCSVSink(&csv)); err != nil {
		t.Fatal(err)
	}
	return csv.Bytes()
}

// countJournalRows parses a journal file, failing on duplicate
// (table, index) keys, and returns the number of row records.
func countJournalRows(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		rec, err := rowlog.Decode([]byte(line))
		if err != nil {
			t.Fatalf("corrupt journal line %q: %v", line, err)
		}
		if rec.Type != "row" {
			continue
		}
		key := fmt.Sprintf("%s#%d", rec.Table, *rec.Index)
		if seen[key] {
			t.Fatalf("journal holds duplicate row %s", key)
		}
		seen[key] = true
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestJournalResumeAfterTruncation is the resumability acceptance
// contract: a journal cut off mid-sweep (including mid-line, as a kill
// would leave it) resumes to the byte-identical final output, and the
// resumed journal holds every row exactly once. Covers a fixed grid and
// an adaptive refinement sweep, whose resumed refinement decisions rank
// on journaled full-precision metrics.
func TestJournalResumeAfterTruncation(t *testing.T) {
	for _, key := range []string{"figure5", "refined-e"} {
		t.Run(key, func(t *testing.T) {
			s := tinyScale()
			s.RefineBudget = 3
			dir := t.TempDir()
			path := filepath.Join(dir, "journal.jsonl")

			want := journaledStream(t, key, s, path, false)
			total := countJournalRows(t, path)
			if total == 0 {
				t.Fatal("journal recorded no rows")
			}

			// Kill simulation: chop the journal mid-file, leaving a
			// partial trailing line.
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := len(full) * 3 / 5
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			j, err := ResumeJournal(path, s.Fingerprint())
			if err != nil {
				t.Fatal(err)
			}
			completed := 0
			for _, name := range j.set.Names() {
				completed += j.set.Table(name).Len()
			}
			j.Close()
			if completed == 0 || completed >= total {
				t.Fatalf("truncated journal holds %d of %d rows; want a strict mid-sweep prefix", completed, total)
			}

			got := journaledStream(t, key, s, path, true)
			if !bytes.Equal(got, want) {
				t.Errorf("resumed output differs from the uninterrupted run:\n%s\nwant:\n%s", got, want)
			}
			if n := countJournalRows(t, path); n != total {
				t.Errorf("resumed journal holds %d rows, want %d", n, total)
			}

			// The resumed run ended the table once, and resuming the
			// finished journal replays every row and ends nothing again.
			done, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(done, []byte(`"type":"end"`)); n != 1 {
				t.Errorf("finished journal holds %d end records, want 1", n)
			}
			journaledStream(t, key, s, path, true)
			if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, done) {
				t.Errorf("resuming a finished journal changed it (err %v):\n%s\nwant:\n%s", err, again, done)
			}
		})
	}
}

// TestResumeSkipsCompletedTasks proves resume actually skips work: a
// synthetic sweep journals half its rows, and the resumed run executes
// only the other half.
func TestResumeSkipsCompletedTasks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	const n = 10

	var executed atomic.Int64
	build := func() *plan {
		var tasks []func() []string
		for i := 0; i < n; i++ {
			tasks = append(tasks, func() []string {
				executed.Add(1)
				return []string{strconv.Itoa(i)}
			})
		}
		return gridPlan(TableMeta{Name: "resume probe", Header: []string{"i"}}, tasks...)
	}

	s := tinyScale()
	s.Arena = sim.NewArena()
	fp := s.Fingerprint()

	// First run: journal rows but fail the sink after 6 rows, as a
	// mid-sweep crash would.
	j, err := CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	boom := errors.New("crash")
	s.Journal = j
	err = stream(s, build(), sinkFunc(func(row []string) error {
		rows++
		if rows > 6 {
			return boom
		}
		return nil
	}))
	j.Close()
	if !errors.Is(err, boom) {
		t.Fatalf("stream error = %v, want the injected crash", err)
	}
	if executed.Load() == 0 {
		t.Fatal("no tasks executed before the crash")
	}

	// Resume: journaled rows replay, only the remainder executes.
	j, err = ResumeJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	journaled := j.set.Table("resume probe").Len()
	if journaled == 0 || journaled >= n {
		t.Fatalf("journal holds %d rows, want a strict prefix of %d", journaled, n)
	}
	executed.Store(0)
	s.Journal = j
	var ts TableSink
	if err := stream(s, build(), &ts); err != nil {
		t.Fatal(err)
	}
	if got := int(executed.Load()); got != n-journaled {
		t.Errorf("resume executed %d tasks, want %d (journal already held %d)", got, n-journaled, journaled)
	}
	tbl := ts.Table()
	if len(tbl.Rows) != n {
		t.Fatalf("resumed table has %d rows, want %d", len(tbl.Rows), n)
	}
	for i, row := range tbl.Rows {
		if row[0] != strconv.Itoa(i) {
			t.Errorf("row %d = %q, want %q", i, row[0], strconv.Itoa(i))
		}
	}
}

// TestCreateRefusesExistingJournal: re-running a crashed sweep without
// -resume must not truncate the checkpoint.
func TestCreateRefusesExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s := tinyScale()
	journaledStream(t, "figure5", s, path, false)
	before := countJournalRows(t, path)
	if before == 0 {
		t.Fatal("journal recorded no rows")
	}
	if _, err := CreateJournal(path, s.Fingerprint()); err == nil {
		t.Fatal("CreateJournal overwrote a non-empty journal")
	}
	if after := countJournalRows(t, path); after != before {
		t.Errorf("refused create still changed the journal: %d -> %d rows", before, after)
	}
}

// TestResumeRejectsScaleMismatch guards against splicing journals from
// incompatible runs.
func TestResumeRejectsScaleMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s := tinyScale()
	j, err := CreateJournal(path, s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := s
	other.Seed = 99
	if _, err := ResumeJournal(path, other.Fingerprint()); !errors.Is(err, rowlog.ErrMismatch) {
		t.Errorf("resume at a different scale returned %v, want rowlog.ErrMismatch", err)
	}
	if _, err := ResumeJournal(path, s.Fingerprint()); err != nil {
		t.Errorf("resume at the same scale failed: %v", err)
	}
}

// TestJournalAndShardCompose: each shard journals and resumes
// independently; the merged union still matches the unsharded stream.
func TestJournalAndShardCompose(t *testing.T) {
	key := "figure5"
	base := tinyScale()
	var want bytes.Buffer
	if err := Stream(key, base, NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const count = 2
	paths := make([]string, count)
	for idx := 0; idx < count; idx++ {
		s := tinyScale()
		s.Shard = Shard{Index: idx, Count: count}
		paths[idx] = filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", idx))
		journaledStream(t, key, s, paths[idx], false)
		// Truncate and resume this shard's journal mid-way.
		full, err := os.ReadFile(paths[idx])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[idx], full[:len(full)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		journaledStream(t, key, s, paths[idx], true)
	}

	// The resumed journals themselves are valid merge inputs.
	in := make([]io.Reader, count)
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		in[i] = f
	}
	var got bytes.Buffer
	if err := MergeShards(in, NewCSVSink(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("merged resumed-shard journals differ from the unsharded stream:\n%s\nwant:\n%s",
			got.String(), want.String())
	}
}

// TestJournalSink: rows that do not come from the engine reach a
// journal through NewJournalSink, numbered in arrival order under a
// table record that names no file and no end; streaming them again
// appends nothing.
func TestJournalSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	tbl := &Table{Name: "T", Header: []string{"x"}, Rows: [][]string{{"a"}, {"b"}}}
	for range 2 {
		if err := tbl.Stream(NewJournalSink(j)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"type":"journal","fingerprint":"fp"}
{"type":"table","name":"T","header":["x"]}
{"type":"row","table":"T","index":0,"row":["a"]}
{"type":"row","table":"T","index":1,"row":["b"]}
`
	if string(got) != want {
		t.Errorf("journal\n%swant\n%s", got, want)
	}
}
