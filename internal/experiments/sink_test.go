package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"streamcache/internal/rowlog"
)

func feedSink(t *testing.T, sink RowSink) {
	t.Helper()
	meta := TableMeta{
		Name:   "Test Table",
		Note:   "a note",
		Header: []string{"x", "y"},
	}
	if err := sink.Begin(meta); err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{{"1", "a"}, {"2", "b"}} {
		if err := sink.Row(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.End(); err != nil {
		t.Fatal(err)
	}
}

func TestTableSink(t *testing.T) {
	var ts TableSink
	feedSink(t, &ts)
	tbl := ts.Table()
	if tbl.Name != "Test Table" || tbl.Note != "a note" {
		t.Errorf("meta = %q / %q", tbl.Name, tbl.Note)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[1][1] != "b" {
		t.Errorf("rows = %v", tbl.Rows)
	}
}

func TestCSVSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	feedSink(t, sink)
	want := "# Test Table\n# a note\nx,y\n1,a\n2,b\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}

	// A table without a note has a one-line preamble.
	buf.Reset()
	sink = NewCSVSink(&buf)
	if err := sink.Begin(TableMeta{Name: "T", Header: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "# T\na\n"; got != want {
		t.Errorf("CSV preamble = %q, want %q", got, want)
	}
}

func TestJSONLSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	feedSink(t, NewJSONLSink(&buf))
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3", len(lines))
	}
	table, err := rowlog.Decode(lines[0])
	if err != nil {
		t.Fatal(err)
	}
	if table.Type != "table" || table.Name != "Test Table" || len(table.Header) != 2 {
		t.Errorf("table record = %+v", table)
	}
	for i, line := range lines[1:] {
		row, err := rowlog.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		if row.Type != "row" || row.Table != "Test Table" || *row.Index != i || len(row.Row) != 2 {
			t.Errorf("row record %d = %+v", i, row)
		}
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	var ts TableSink
	var buf bytes.Buffer
	feedSink(t, MultiSink{&ts, NewCSVSink(&buf)})
	if len(ts.Table().Rows) != 2 {
		t.Errorf("table sink rows = %d, want 2", len(ts.Table().Rows))
	}
	if buf.Len() == 0 {
		t.Error("CSV sink saw nothing")
	}
}

// TestSinksRefuseRaggedRows: the two sinks that turn a row into bytes
// refuse one whose cell count differs from the header's, through every
// door a row can come in by, naming table, index, got and want — and
// write nothing for it.
func TestSinksRefuseRaggedRows(t *testing.T) {
	meta := TableMeta{Name: "T", Header: []string{"x", "y", "z"}}
	short, long := []string{"1"}, []string{"1", "2", "3", "4", "5"}
	cases := []struct {
		name string
		sink func(*bytes.Buffer) RowSink
		send func(RowSink, []string) error
		want string // the index the error names
	}{
		{"csv Row", func(b *bytes.Buffer) RowSink { return NewCSVSink(b) },
			func(s RowSink, r []string) error { return s.Row(r) }, "row 1 "},
		{"csv engine row", func(b *bytes.Buffer) RowSink { return NewCSVSink(b) },
			func(s RowSink, r []string) error { return rowlog.Emit(s, MetricRow{Index: 1, Row: r}) }, "row 1 "},
		{"recorder Row", func(b *bytes.Buffer) RowSink { return NewJSONLSink(b) },
			func(s RowSink, r []string) error { return s.Row(r) }, "row 1 "},
		{"recorder IndexedRow", func(b *bytes.Buffer) RowSink { return NewJSONLSink(b) },
			func(s RowSink, r []string) error { return s.(IndexedSink).IndexedRow(7, r) }, "row 7 "},
		{"recorder MetricRow", func(b *bytes.Buffer) RowSink { return NewJSONLSink(b) },
			func(s RowSink, r []string) error {
				return s.(MetricSink).MetricRow(MetricRow{Index: 9, Row: r, Metric: 0.5, HasMetric: true})
			}, "row 9 "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			sink := c.sink(&buf)
			if err := errors.Join(sink.Begin(meta), sink.Row([]string{"a", "b", "c"})); err != nil {
				t.Fatal(err)
			}
			before := buf.String()
			for _, row := range [][]string{short, long, nil} {
				err := c.send(sink, row)
				want := fmt.Sprintf(`%sof table "T" has %d cells, its header declares 3`, c.want, len(row))
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%d-cell row: err %v, want one saying %q", len(row), err, want)
				}
			}
			if buf.String() != before {
				t.Errorf("a refused row left bytes behind:\n%s", buf.String()[len(before):])
			}
		})
	}
}
