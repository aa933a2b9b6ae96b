package rowlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The lines every writer has always produced, byte for byte: a journal
// stamp, a table with and without a note, a fixed-grid row, a refined
// row with its metric, a metric-only checkpoint, the push wire's table
// with a file stem and a journal's end of a table. Every row of T has
// its header's two cells.
const (
	stampLine  = `{"type":"journal","fingerprint":"fp"}`
	tableLine  = `{"type":"table","name":"T","header":["x","y"]}`
	notedLine  = `{"type":"table","name":"N \u003c\u0026\u003e","note":"a note","header":["x","y"]}` // encoding/json escapes <&>
	wireLine   = `{"type":"table","name":"T","header":["x","y"],"file":"stem"}`
	metricLine = `{"type":"metric","table":"T","index":5,"metric":1.25}`
	endLine    = `{"type":"end","table":"T","rows":3}`
)

func rowLine(i int) string {
	return fmt.Sprintf(`{"type":"row","table":"T","index":%d,"row":["%d","fixed"]}`, i, i)
}

func refinedLine(i int, m string) string {
	return fmt.Sprintf(`{"type":"row","table":"T","index":%d,"row":["%d","coarse"],"metric":%s}`, i, i, m)
}

func lines(ls ...string) string { return strings.Join(ls, "\n") + "\n" }

// TestRecordBytes pins the codec to the legacy encodings: every line
// shape decodes and re-encodes to itself, and the constructors produce
// the same bytes. "Same bytes out" of every file a run writes rests on
// this.
func TestRecordBytes(t *testing.T) {
	// 0.1234567890123456789 is the wire-precision probe of the collector tests.
	for _, line := range []string{stampLine, tableLine, notedLine, wireLine, metricLine, endLine,
		rowLine(0), rowLine(7), refinedLine(0, "0.12345678901234568"), refinedLine(3, "1e-7")} {
		rec, err := Decode([]byte(line))
		if err != nil {
			t.Errorf("Decode(%s): %v", line, err)
			continue
		}
		var buf bytes.Buffer
		if err := rec.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != line+"\n" {
			t.Errorf("re-encoded\n %s as\n %s", line, got)
		}
	}
	built := map[string]Record{
		stampLine:             stamp("fp"),
		notedLine:             TableRecord(Meta{Name: "N <&>", Note: "a note", Header: []string{"x", "y"}}, ""),
		wireLine:              TableRecord(Meta{Name: "T", Header: []string{"x", "y"}}, "stem"),
		rowLine(0):            RowRecord("T", Row{Index: 0, Row: []string{"0", "fixed"}}),
		refinedLine(2, "0.5"): RowRecord("T", Row{Index: 2, Row: []string{"2", "coarse"}, Metric: 0.5, HasMetric: true}),
		metricLine:            MetricRecord("T", 5, 1.25),
		endLine:               EndRecord("T", 3),
	}
	for want, rec := range built {
		var buf bytes.Buffer
		if err := rec.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want+"\n" {
			t.Errorf("constructor encoded\n %s, want\n %s", got, want)
		}
	}
}

// collect loads a log into a fresh set, returning each record's
// fresh-vs-duplicate verdict.
func collect(log string) (*Set, []bool, error) { return collectInto(&Set{}, log) }

func collectInto(set *Set, log string) (*Set, []bool, error) {
	var fresh []bool
	err := Load(strings.NewReader(log), func(rec Record) error {
		f, err := set.Apply(rec)
		fresh = append(fresh, f)
		return err
	})
	return set, fresh, err
}

// memSink records what Replay delivers.
type memSink struct {
	meta  Meta
	rows  []Row
	ended bool
}

func (m *memSink) Begin(meta Meta) error { m.meta = meta; return nil }
func (m *memSink) Row([]string) error    { return errors.New("Emit bypassed MetricRow") }
func (m *memSink) MetricRow(r Row) error { m.rows = append(m.rows, r); return nil }
func (m *memSink) End() error            { m.ended = true; return nil }

// TestSetApply is the one table of dedupe, gap and ordering cases behind
// the journal (duplicate = skip), the collector (duplicate = skip) and
// MergeShards (duplicate row = error): what Apply calls fresh, what it
// refuses, and what Replay then delivers or refuses.
func TestSetApply(t *testing.T) {
	cases := []struct {
		name      string
		log       string
		fresh     []bool // per record, up to the failing one
		applyErr  string // substring; "" = loads cleanly
		rows      []int  // indices Replay delivers, in order
		replayErr string // substring; "" = Replay delivers rows
	}{
		{name: "two shards interleave to a complete table",
			log:   lines(tableLine, rowLine(0), rowLine(2), tableLine, rowLine(1)),
			fresh: []bool{true, true, true, false, true}, rows: []int{0, 1, 2}},
		{name: "replayed row is a duplicate, first payload wins",
			log:   lines(tableLine, rowLine(0), `{"type":"row","table":"T","index":0,"row":["other","payload"]}`),
			fresh: []bool{true, true, false}, rows: []int{0}},
		{name: "whole-log replay after a reconnect is all duplicates",
			log:   lines(tableLine, rowLine(0), rowLine(1), tableLine, rowLine(0), rowLine(1)),
			fresh: []bool{true, true, true, false, false, false}, rows: []int{0, 1}},
		{name: "gap below the highest index",
			log:   lines(tableLine, rowLine(0), rowLine(2)),
			fresh: []bool{true, true, true}, replayErr: "gap in table \"T\" at row 1"},
		{name: "missing first row",
			log:   lines(tableLine, rowLine(1)),
			fresh: []bool{true, true}, replayErr: "gap in table \"T\" at row 0"},
		{name: "journal stamps carry no state",
			log:   lines(stampLine, tableLine, rowLine(0), `{"type":"journal","fingerprint":"other"}`),
			fresh: []bool{false, true, true, false}, rows: []int{0}},
		{name: "a re-declaration naming the stem the set lacked is fresh, once",
			log:   lines(tableLine, rowLine(0), wireLine, wireLine, tableLine),
			fresh: []bool{true, true, true, false, false}, rows: []int{0}},
		{name: "metric-only record, then a duplicate of it",
			log:   lines(tableLine, metricLine, metricLine),
			fresh: []bool{true, true, false}, rows: []int{}},
		{name: "row before its table",
			log: lines(rowLine(0)), fresh: []bool{false}, applyErr: "undeclared table"},
		{name: "metric before its table",
			log: lines(metricLine), fresh: []bool{false}, applyErr: "undeclared table"},
		{name: "row of another table",
			log:   lines(tableLine, `{"type":"row","table":"U","index":0,"row":["0","fixed"]}`),
			fresh: []bool{true, false}, applyErr: "undeclared table"},
		{name: "table re-declared with another header",
			log:   lines(tableLine, `{"type":"table","name":"T","header":["x"]}`),
			fresh: []bool{true, false}, applyErr: "different header"},
		{name: "row one cell short of its header",
			log:   lines(tableLine, rowLine(0), `{"type":"row","table":"T","index":1,"row":["1"]}`),
			fresh: []bool{true, true, false}, applyErr: `row 1 of table "T" has 1 cells, its header declares 2`},
		{name: "row one cell longer than its header",
			log:   lines(tableLine, `{"type":"row","table":"T","index":4,"row":["4","fixed","extra"]}`),
			fresh: []bool{true, false}, applyErr: `row 4 of table "T" has 3 cells, its header declares 2`},
		{name: "row with no cells",
			log:   lines(tableLine, `{"type":"row","table":"T","index":0}`),
			fresh: []bool{true, false}, applyErr: `row 0 of table "T" has 0 cells, its header declares 2`},
		{name: "ragged replay of a row already held",
			log:   lines(tableLine, rowLine(0), `{"type":"row","table":"T","index":0,"row":["0"]}`),
			fresh: []bool{true, true, false}, applyErr: "has 1 cells"},
		{name: "metric-only records carry no cells",
			log:   lines(tableLine, rowLine(0), metricLine),
			fresh: []bool{true, true, true}, rows: []int{0}},
		{name: "an ended table is complete at its count, and an agreeing end is a duplicate",
			log:   lines(tableLine, rowLine(0), rowLine(2), endLine, rowLine(1), endLine),
			fresh: []bool{true, true, true, true, true, false}, rows: []int{0, 1, 2}},
		{name: "a missing tail below the end",
			log:   lines(tableLine, rowLine(0), rowLine(1), endLine),
			fresh: []bool{true, true, true, true}, replayErr: `table "T" holds 2 of its 3 rows`},
		{name: "rows past the end",
			log:   lines(tableLine, rowLine(0), rowLine(1), rowLine(2), rowLine(3), endLine),
			fresh: []bool{true, true, true, true, true, true}, replayErr: `table "T" holds 4 of its 3 rows`},
		{name: "end before its table",
			log: lines(endLine), fresh: []bool{false}, applyErr: `end record for undeclared table "T"`},
		{name: "two ends that disagree",
			log:   lines(tableLine, endLine, `{"type":"end","table":"T","rows":4}`),
			fresh: []bool{true, true, false}, applyErr: `table "T" ended at 3 rows and again at 4`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set, fresh, err := collect(c.log)
			if !slices.Equal(fresh, c.fresh) {
				t.Errorf("fresh = %v, want %v", fresh, c.fresh)
			}
			if c.applyErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.applyErr) {
					t.Fatalf("load error = %v, want one naming %q", err, c.applyErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var sink memSink
			err = set.Table("T").Replay(&sink)
			if c.replayErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.replayErr) || sink.meta.Name != "" {
					t.Fatalf("Replay of an incomplete table: err %v, began %q; want an error naming %q before Begin", err, sink.meta.Name, c.replayErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := []int{}
			for i, r := range sink.rows {
				got = append(got, r.Index)
				if r.Row[0] != fmt.Sprint(r.Index) {
					t.Errorf("delivered row %d carries %q", i, r.Row)
				}
			}
			if !slices.Equal(got, c.rows) || !sink.ended || sink.meta.Name != "T" {
				t.Errorf("Replay delivered %v (ended %t, table %q), want %v", got, sink.ended, sink.meta.Name, c.rows)
			}
		})
	}
}

// TestSetMetrics: a metric is known from whichever record brought it,
// and a row supersedes the metric-only checkpoint in the canonical log.
func TestSetMetrics(t *testing.T) {
	set, _, err := collect(lines(tableLine, metricLine, `{"type":"metric","table":"T","index":2,"metric":9.5}`,
		refinedLine(2, "9.5"), rowLine(7)))
	if err != nil {
		t.Fatal(err)
	}
	tab := set.Table("T")
	if r, ok := tab.At(5); ok || !r.HasMetric || r.Metric != 1.25 {
		t.Errorf("At(5) = %+v, %t; want no row, metric 1.25", r, ok)
	}
	if r, ok := tab.At(2); !ok || !r.HasMetric || r.Metric != 9.5 {
		t.Errorf("At(2) = %+v, %t; want a row with metric 9.5", r, ok)
	}
	if r, ok := tab.At(7); !ok || r.HasMetric {
		t.Errorf("At(7) = %+v, %t; want a row without a metric", r, ok)
	}
	if r, ok := set.Table("absent").At(0); ok || r.HasMetric {
		t.Errorf("undeclared table answered %+v, %t", r, ok)
	}
	if tab.Len() != 2 || tab.Next() != 8 {
		t.Errorf("Len, Next = %d, %d; want 2, 8", tab.Len(), tab.Next())
	}
	want := lines(stampLine, tableLine, refinedLine(2, "9.5"), rowLine(7), metricLine)
	if got := canonical(t, set); got != want {
		t.Errorf("canonical log\n%swant\n%s", got, want)
	}
	if _, _, err := collectInto(set, lines(`{"type":"end","table":"T","rows":8}`)); err != nil {
		t.Fatal(err)
	}
	want = lines(stampLine, tableLine, refinedLine(2, "9.5"), rowLine(7), metricLine, `{"type":"end","table":"T","rows":8}`)
	if got := canonical(t, set); got != want {
		t.Errorf("canonical log\n%swant\n%s", got, want)
	}
}

// TestRecorder: the one sink that feeds a row log declares the table
// (with its file stem), numbers plain rows by a local counter that a new
// Begin resets, and passes engine rows through with index and metric.
func TestRecorder(t *testing.T) {
	var got bytes.Buffer
	rec := NewRecorder("stem", func(r Record) error { return r.Encode(&got) })
	meta := Meta{Name: "T", Header: []string{"x", "y"}}
	for range 2 {
		if err := errors.Join(rec.Begin(meta), rec.Row([]string{"0", "fixed"}), rec.Row([]string{"1", "fixed"}),
			rec.IndexedRow(7, []string{"7", "fixed"}), Emit(rec, Row{Index: 2, Row: []string{"2", "coarse"}, Metric: 0.5, HasMetric: true}),
			rec.End()); err != nil {
			t.Fatal(err)
		}
	}
	table := lines(wireLine, rowLine(0), rowLine(1), rowLine(7), refinedLine(2, "0.5"))
	if got.String() != table+table {
		t.Errorf("recorded\n%swant twice\n%s", got.String(), table)
	}
}

// TestTableCloneAndComplete: a clone replays what the table held when it
// was taken, whatever is applied afterwards, and Complete names the
// first gap.
func TestTableCloneAndComplete(t *testing.T) {
	set, _, err := collect(lines(tableLine, rowLine(0), rowLine(2)))
	if err != nil {
		t.Fatal(err)
	}
	gapped := set.Table("T").Clone()
	if _, _, err := collectInto(set, lines(rowLine(1), rowLine(3))); err != nil {
		t.Fatal(err)
	}
	if err := gapped.Complete(); err == nil || !strings.Contains(err.Error(), "at row 1") {
		t.Errorf("clone taken before row 1 arrived: Complete = %v, want a gap at row 1", err)
	}
	if gapped.Len() != 2 {
		t.Errorf("clone grew to %d rows with its source", gapped.Len())
	}
	var sink memSink
	if err := set.Table("T").Replay(&sink); err != nil || len(sink.rows) != 4 {
		t.Errorf("Replay of the completed table: %v, %d rows; want 4", err, len(sink.rows))
	}
}

func canonical(t *testing.T, set *Set) string {
	t.Helper()
	var buf bytes.Buffer
	for rec := range set.Records("fp") {
		if err := rec.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestFileOpen: Open drops a torn tail, guards the fingerprint, names a
// corrupt line, treats a missing file as empty, and leaves exactly the
// canonical log on disk, appendable, with no tmp file behind.
func TestFileOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	messy := lines(stampLine, tableLine, rowLine(1), metricLine, rowLine(0), tableLine, rowLine(1)) + `{"type":"row","table":"T","ind`
	if err := os.WriteFile(path, []byte(messy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "other", &Set{}); !errors.Is(err, ErrMismatch) {
		t.Errorf("Open under another fingerprint: %v, want ErrMismatch", err)
	}
	if _, err := Create(path, "fp"); err == nil {
		t.Error("Create overwrote a log that holds records")
	}
	var set Set
	f, err := Open(path, "fp", &set)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(RowRecord("T", Row{Index: 2, Row: []string{"2", "fixed"}})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := lines(stampLine, tableLine, rowLine(0), rowLine(1), metricLine, rowLine(2)); string(got) != want {
		t.Errorf("file after Open+Append\n%swant\n%s", got, want)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("rewrite left its tmp file behind (stat err %v)", err)
	}

	if err := os.WriteFile(path, []byte(lines(stampLine, tableLine, "not json", rowLine(0))), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "fp", &Set{}); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("Open of a log corrupt mid-file: %v, want an error naming line 3", err)
	}

	fresh := filepath.Join(t.TempDir(), "absent.jsonl")
	f, err = Open(fresh, "fp", &Set{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, _ := os.ReadFile(fresh); string(got) != lines(stampLine) {
		t.Errorf("Open of a missing file wrote %q, want just the stamp", got)
	}
}

// fuzzSeed is a valid log holding every record shape.
var fuzzSeed = lines(stampLine, notedLine, tableLine, refinedLine(0, "0.12345678901234568"), metricLine,
	refinedLine(1, "1e-7"), rowLine(2), `{"type":"metric","table":"T","index":1,"metric":3}`, rowLine(4), endLine)

// FuzzLogLoad: whatever truncation or byte corruption does to a valid
// log, loading it never panics, never loses a complete record that sits
// before the damage, and — when the damaged log still loads — rewriting
// the loaded state and loading that again is a fixed point, every row
// it holds as wide as its table's header.
func FuzzLogLoad(f *testing.F) {
	f.Add([]byte(fuzzSeed))
	f.Add([]byte(fuzzSeed[:len(fuzzSeed)/2]))
	f.Add([]byte(fuzzSeed[:len(fuzzSeed)-1]))
	f.Add([]byte(strings.Replace(fuzzSeed, `"index":2`, `"index":-2`, 1)))
	f.Add([]byte(strings.Replace(fuzzSeed, `"metric":3`, `"metric":null`, 1)))
	f.Add([]byte(lines(rowLine(0)) + "not json\n"))
	f.Fuzz(func(t *testing.T, log []byte) {
		set := &Set{}
		loaded := 0
		err := Load(bytes.NewReader(log), func(rec Record) error {
			loaded++
			_, err := set.Apply(rec)
			return err
		})
		intact := 0 // bytes log shares with the valid seed
		for intact < len(log) && intact < len(fuzzSeed) && log[intact] == fuzzSeed[intact] {
			intact++
		}
		if want := strings.Count(fuzzSeed[:intact], "\n"); loaded < want {
			t.Fatalf("loaded %d records (err %v) of a log whose first %d lines are intact", loaded, err, want)
		}
		if err != nil && !errors.Is(err, ErrTorn) {
			return
		}
		for _, name := range set.Names() {
			tab := set.Table(name)
			for i := range tab.Next() {
				if r, ok := tab.At(i); ok && len(r.Row) != len(tab.Meta.Header) {
					t.Fatalf("table %q holds row %d with %d cells under a %d-column header", name, i, len(r.Row), len(tab.Meta.Header))
				}
			}
		}
		once := canonical(t, set)
		again, _, err := collect(once)
		if err != nil {
			t.Fatalf("canonical log does not load: %v\n%s", err, once)
		}
		if twice := canonical(t, again); twice != once {
			t.Fatalf("load -> rewrite -> load is not a fixed point:\n%s---\n%s", once, twice)
		}
	})
}
