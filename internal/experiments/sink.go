package experiments

import (
	"encoding/csv"
	"io"

	"streamcache/internal/rowlog"
)

// The streaming results path: every experiment pushes its rows into a
// RowSink incrementally, in deterministic task order, as sweep workers
// finish out of order (a reorder buffer over the par pool sequences
// them). Long sweeps therefore produce consumable output from the first
// completed point; the in-memory Table of the old collect-then-return
// contract is just one sink among several.

// The seam itself — the row, the table identity and the three delivery
// interfaces a sink may implement — is defined next to the line format
// in internal/rowlog; the names below are the ones experiments, its
// drivers and its sinks have always used for it. The engine delivers
// each row through rowlog.Emit: MetricRow over IndexedRow over Row.
type (
	TableMeta   = rowlog.Meta
	MetricRow   = rowlog.Row
	RowSink     = rowlog.Sink
	IndexedSink = rowlog.IndexedSink
	MetricSink  = rowlog.MetricSink
)

// TableSink buffers a streamed experiment into an in-memory Table — the
// old aggregate contract expressed as a sink. The zero value is ready
// to use.
type TableSink struct {
	table Table
}

// Begin records the table identity.
func (t *TableSink) Begin(meta TableMeta) error {
	t.table = Table{Name: meta.Name, Note: meta.Note, Header: meta.Header}
	return nil
}

// Row appends one row.
func (t *TableSink) Row(row []string) error {
	t.table.Rows = append(t.table.Rows, row)
	return nil
}

// End is a no-op; the table is complete.
func (t *TableSink) End() error { return nil }

// Table returns the accumulated table.
func (t *TableSink) Table() *Table {
	tbl := t.table
	return &tbl
}

// Stream pushes the whole table into sink: the table identity, every
// row in order, then End — the inverse of collecting one in a TableSink.
func (t *Table) Stream(sink RowSink) error {
	if err := sink.Begin(TableMeta{Name: t.Name, Note: t.Note, Header: t.Header}); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := sink.Row(row); err != nil {
			return err
		}
	}
	return sink.End()
}

// CSVSink streams a table as CSV: two leading comment lines (name and
// note), the header, then one line per row, flushed row by row so a
// consumer tailing the file sees points as they complete. Cells are
// joined with commas, one holding a comma, a quote or a line break
// quoted per RFC 4180 (encoding/csv); a row of another width than the
// header is refused, not written.
type CSVSink struct {
	out  io.Writer
	w    *csv.Writer
	meta TableMeta
	rows int
}

// NewCSVSink wraps w in a streaming CSV renderer.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{out: w, w: csv.NewWriter(w)}
}

// Begin writes the comment preamble and header.
func (c *CSVSink) Begin(meta TableMeta) error {
	c.meta, c.rows = meta, 0
	preamble := "# " + meta.Name + "\n"
	if meta.Note != "" {
		preamble += "# " + meta.Note + "\n"
	}
	if _, err := io.WriteString(c.out, preamble); err != nil {
		return err
	}
	return c.line(meta.Header)
}

// Row writes and flushes one CSV line.
func (c *CSVSink) Row(row []string) error {
	if err := c.meta.CheckRow(c.rows, row); err != nil {
		return err
	}
	c.rows++
	return c.line(row)
}

func (c *CSVSink) line(cells []string) error {
	if err := c.w.Write(cells); err != nil {
		return err
	}
	c.w.Flush()
	return c.w.Error()
}

// End is a no-op: every line was flushed as it was written.
func (c *CSVSink) End() error { return nil }

// JSONLSink streams a table as a row log (internal/rowlog): one "table"
// record carrying name/note/header, then one "row" record per row, each
// written as it arrives. The byte stream is deterministic for a
// deterministic row stream. Engine-streamed rows carry their global
// index, so the JSONL outputs of a table's shards are MergeShards
// inputs; rows pushed via plain Row are numbered by a local counter.
type JSONLSink = rowlog.Recorder

// NewJSONLSink wraps w in a streaming JSONL renderer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return rowlog.NewRecorder("", func(rec rowlog.Record) error {
		rec.Metric = nil // a table file carries rows only; metrics travel in journals and pushes
		return rec.Encode(w)
	})
}

// MultiSink fans every call out to several sinks (e.g. CSV to disk plus
// a live JSONL feed). The first error aborts the fan-out.
type MultiSink []RowSink

// Begin forwards to every sink.
func (m MultiSink) Begin(meta TableMeta) error {
	for _, s := range m {
		if err := s.Begin(meta); err != nil {
			return err
		}
	}
	return nil
}

// Row forwards to every sink.
func (m MultiSink) Row(row []string) error {
	for _, s := range m {
		if err := s.Row(row); err != nil {
			return err
		}
	}
	return nil
}

// MetricRow forwards an engine-emitted row to every sink through the
// richest interface each implements, so one fan-out can mix plain,
// indexed and journaling sinks.
func (m MultiSink) MetricRow(r MetricRow) error {
	for _, s := range m {
		if err := rowlog.Emit(s, r); err != nil {
			return err
		}
	}
	return nil
}

// End forwards to every sink.
func (m MultiSink) End() error {
	for _, s := range m {
		if err := s.End(); err != nil {
			return err
		}
	}
	return nil
}
