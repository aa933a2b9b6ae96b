package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// mergeKeys are a fixed grid, an adaptive table whose shards exchange
// metrics (so their journals hold metric-only records) and a static
// table.
var mergeKeys = []string{"figure5", "refined-e", "table1"}

// stemOf is the output stem figures journals a table under.
func stemOf(t *testing.T, key string) string {
	t.Helper()
	e, ok := ExperimentByKey(key)
	if !ok {
		t.Fatalf("no experiment %q", key)
	}
	return strings.TrimSuffix(e.File, ".csv")
}

// runJournaledShard streams every key on one shard into the journal at
// path, as `figures -shard -journal` does, publishing its metrics to st
// and resolving its peers' there; resume continues the journal instead.
func runJournaledShard(t *testing.T, s Scale, path string, st *memStore, resume bool) error {
	s.Exchange = st
	open := CreateJournal
	if resume {
		open = ResumeJournal
	}
	j, err := open(path, s.Fingerprint())
	if err != nil {
		return err
	}
	defer j.Close()
	s.Journal = j
	for _, key := range mergeKeys {
		if err := Stream(key, s, &memSink{st: st}); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	return nil
}

// mergedFiles merges the journals at paths and writes every table as
// figures -merge -jsonl does, returning the files' bytes by name.
func mergedFiles(t *testing.T, paths ...string) map[string][]byte {
	t.Helper()
	tables, err := MergeJournals(paths)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tbl := range tables {
		if err := WriteTable(dir, tbl, true); err != nil {
			t.Fatal(err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for _, f := range files {
		if got[f.Name()], err = os.ReadFile(filepath.Join(dir, f.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestMergeJournalsMatchesSingle: the journals of two shards, each
// holding several tables, merge to the single-process CSV and JSONL
// bytes of every table, and still do after one journal is cut mid-line
// and its shard resumed.
func TestMergeJournalsMatchesSingle(t *testing.T) {
	base := tinyScale()
	base.RefineBudget = 3
	want := map[string][]byte{}
	for _, key := range mergeKeys {
		var csv, jsonl bytes.Buffer
		if err := Stream(key, base, MultiSink{NewCSVSink(&csv), NewJSONLSink(&jsonl)}); err != nil {
			t.Fatal(err)
		}
		want[stemOf(t, key)+".csv"], want[stemOf(t, key)+".jsonl"] = csv.Bytes(), jsonl.Bytes()
	}
	check := func(t *testing.T, got map[string][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("merge wrote %d files, want %d", len(got), len(want))
		}
		for name, w := range want {
			if !bytes.Equal(got[name], w) {
				t.Errorf("merged %s differs from the single-process run:\n%s\nwant:\n%s", name, got[name], w)
			}
		}
	}

	const count = 2
	dir := t.TempDir()
	paths := make([]string, count)
	shards := make([]Scale, count)
	st := newMemStore()
	errs := make([]error, count)
	var wg sync.WaitGroup
	for idx := range count {
		paths[idx] = filepath.Join(dir, fmt.Sprintf("j%d.jsonl", idx))
		shards[idx] = base
		shards[idx].Shard = Shard{Index: idx, Count: count}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[idx] = runJournaledShard(t, shards[idx], paths[idx], st, false)
		}()
	}
	wg.Wait()
	metrics := 0
	for idx, err := range errs {
		if err != nil {
			t.Fatalf("shard %d/%d: %v", idx, count, err)
		}
		b, err := os.ReadFile(paths[idx])
		if err != nil {
			t.Fatal(err)
		}
		metrics += bytes.Count(b, []byte(`"type":"metric"`))
	}
	if metrics == 0 {
		t.Fatal("no journal holds a metric-only record; the exchange was not live")
	}
	check(t, mergedFiles(t, paths...))
	// The order the journals are named in is not the shards'.
	check(t, mergedFiles(t, paths[1], paths[0]))

	t.Run("resumed", func(t *testing.T) {
		full, err := os.ReadFile(paths[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[1], full[:len(full)*3/5], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runJournaledShard(t, shards[1], paths[1], st, true); err != nil {
			t.Fatal(err)
		}
		check(t, mergedFiles(t, paths...))
	})
	t.Run("without end records", func(t *testing.T) {
		// Journals written before tables were ended are refused until
		// their shards are resumed, which replays every row and ends each
		// table.
		for _, path := range paths {
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var kept []byte
			for _, line := range bytes.SplitAfter(full, []byte("\n")) {
				if !bytes.Contains(line, []byte(`"type":"end"`)) {
					kept = append(kept, line...)
				}
			}
			if err := os.WriteFile(path, kept, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := MergeJournals(paths); err == nil || !strings.Contains(err.Error(), "has no end record") {
			t.Fatalf("MergeJournals of journals without end records = %v, want a refusal", err)
		}
		for idx := range count {
			if err := runJournaledShard(t, shards[idx], paths[idx], st, true); err != nil {
				t.Fatal(err)
			}
		}
		check(t, mergedFiles(t, paths...))
	})
}

// TestMergeJournalsRefusals: a set of journals that is not one whole
// run is refused, and the error names what is wrong.
func TestMergeJournalsRefusals(t *testing.T) {
	dir := t.TempDir()
	stamp := func(seed int64, sh Shard) string {
		s := tinyScale()
		s.Seed, s.Shard = seed, sh
		return fmt.Sprintf(`{"type":"journal","fingerprint":%q}`+"\n", s.Fingerprint())
	}
	const table = `{"type":"table","name":"T","header":["x"],"file":"t"}` + "\n"
	row := func(i int) string {
		return fmt.Sprintf(`{"type":"row","table":"T","index":%d,"row":["%d"]}`+"\n", i, i)
	}
	end := func(n int) string { return fmt.Sprintf(`{"type":"end","table":"T","rows":%d}`+"\n", n) }
	n := 0
	journal := func(lines ...string) string {
		n++
		path := filepath.Join(dir, fmt.Sprintf("j%d.jsonl", n))
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	of2 := func(i int) Shard { return Shard{Index: i, Count: 2} }
	j0 := journal(stamp(1, of2(0)), table, row(0), row(2), end(4))
	j1 := journal(stamp(1, of2(1)), table, row(1), row(3), end(4))

	if got := mergedFiles(t, j0, j1); string(got["t.csv"]) != "# T\nx\n0\n1\n2\n3\n" {
		t.Fatalf("the well-formed pair merged to %q", got["t.csv"])
	}
	unstemmed := `{"type":"table","name":"T","header":["x"]}` + "\n"
	cases := []struct {
		name  string
		paths []string
		want  string
	}{
		{"missing shard", []string{j0}, "shard 1/2 missing"},
		{"shard given twice", []string{j0, journal(stamp(1, of2(0)), table, row(1), row(3), end(4))}, "shard 0/2 given twice"},
		{"one journal named twice", []string{j0, j0, j1}, "shard 0/2 given twice"},
		{"shards of two counts", []string{j0, journal(stamp(1, Shard{Index: 1, Count: 5}), table, row(1))},
			"shard 1/5, but " + j0 + " is a shard of 2: shards of two counts"},
		{"an unsharded journal beside a shard", []string{j0, journal(stamp(1, Shard{}), table, row(1))},
			"shards of two counts"},
		{"journals of two runs", []string{j0, journal(stamp(2, of2(1)), table, row(1))}, "stamp names another run"},
		{"a table with no stem", []string{
			journal(stamp(1, of2(0)), unstemmed, row(0), row(2), end(4)),
			journal(stamp(1, of2(1)), unstemmed, row(1), row(3), end(4))},
			`table "T" names no output file`},
		{"a gap", []string{j0, journal(stamp(1, of2(1)), table)}, `gap in table "T" at row 1`},
		// A shard journal cut at a line boundary before its last row: below
		// another shard's row it leaves a gap, at the table's tail it
		// leaves the table short of its end.
		{"a journal cut before its last row, below another's", []string{journal(stamp(1, of2(0)), table, row(0)), j1},
			`gap in table "T" at row 2`},
		{"a journal cut before the table's last row", []string{j0, journal(stamp(1, of2(1)), table, row(1))},
			`table "T" holds 3 of its 4 rows`},
		{"a table one shard never reached", []string{journal(stamp(1, of2(0)), table, row(0), row(1), end(3)), journal(stamp(1, of2(1)))},
			`table "T" holds 2 of its 3 rows`},
		{"a table no journal ends", []string{journal(stamp(1, of2(0)), table, row(0), row(2)), journal(stamp(1, of2(1)), table, row(1), row(3))},
			`table "T" has no end record`},
		{"two ends that disagree", []string{j0, journal(stamp(1, of2(1)), table, row(1), row(3), end(5))},
			`table "T" ended at 4 rows and again at 5`},
		{"an end of an undeclared table", []string{j0, journal(stamp(1, of2(1)), table, row(1), row(3), `{"type":"end","table":"U","rows":1}`+"\n")},
			`end record for undeclared table "U"`},
		{"a ragged row", []string{j0, journal(stamp(1, of2(1)), table, `{"type":"row","table":"T","index":1,"row":["1","extra"]}`+"\n")},
			`.jsonl: rowlog: line 3: rowlog: row 1 of table "T" has 2 cells, its header declares 1`},
		{"a duplicate row", []string{j0, journal(stamp(1, of2(1)), table, row(1), row(2))},
			`duplicate row index 2 of table "T"`},
		{"a row log without a stamp", []string{j0, journal(table, row(1))}, "no journal stamp"},
		{"an empty file", []string{j0, journal()}, "no journal stamp"},
		{"a journal cut mid-record", []string{j0, journal(stamp(1, of2(1)), table, `{"type":"row","table":"T","ind`)}, "cut short"},
		{"no journals", nil, "zero journals"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := MergeJournals(c.paths)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("MergeJournals = %v, want an error naming %q", err, c.want)
			}
		})
	}
}
