package rowlog

import (
	"fmt"
	"iter"
	"maps"
	"slices"
)

// Meta identifies a streamed table before any of its rows arrive.
type Meta struct {
	Name   string
	Note   string
	Header []string
}

// CheckRow refuses a row whose cell count differs from the header's:
// the one width rule, applied wherever a row becomes bytes or state —
// a CSV line, a record, a Set's table.
func (m Meta) CheckRow(index int, row []string) error {
	if len(row) != len(m.Header) {
		return fmt.Errorf("rowlog: row %d of table %q has %d cells, its header declares %d",
			index, m.Name, len(row), len(m.Header))
	}
	return nil
}

// Row is the in-memory form of one row: its global index — the row's
// position in the unsharded deterministic stream, the stable key of
// sharding, journaling and collection — its cells, and for
// adaptive-sweep rows the refinement metric (HasMetric false for
// fixed-grid rows). The metric must survive every transport at full
// float64 precision so that a resumed run or a foreign shard takes
// refinement decisions bit-identical to local evaluation.
type Row struct {
	Index     int
	Row       []string
	Metric    float64
	HasMetric bool
}

// Sink consumes one table's rows incrementally. Begin is called exactly
// once before the first row, Row once per row in deterministic order,
// and End exactly once after the last row (End is not called when the
// producer aborts on an error). Implementations need not be safe for
// concurrent use: producers serialize all calls.
//
// A producer that fails mid-flight may already have delivered a prefix
// of its rows; sinks that require all-or-nothing semantics should
// buffer.
type Sink interface {
	Begin(meta Meta) error
	Row(row []string) error
	End() error
}

// IndexedSink is an optional Sink extension: sinks that implement it
// receive each row together with its global index. In an unsharded run
// the indices are the contiguous sequence 0, 1, 2, ..., while a sharded
// run delivers only the shard-owned subset (with gaps a merge later
// closes).
type IndexedSink interface {
	Sink
	IndexedRow(index int, row []string) error
}

// MetricSink is the richest Sink extension: sinks that implement it
// receive each row with its global index and refinement metric.
type MetricSink interface {
	Sink
	MetricRow(r Row) error
}

// Emit delivers one row to a sink through the richest interface it
// implements: MetricRow over IndexedRow over Row.
func Emit(sink Sink, r Row) error {
	switch t := sink.(type) {
	case MetricSink:
		return t.MetricRow(r)
	case IndexedSink:
		return t.IndexedRow(r.Index, r.Row)
	default:
		return sink.Row(r.Row)
	}
}

// Recorder is the Sink that writes a table as records: its declaration,
// then one row record per row, each handed to put as it arrives. It is
// every sink that feeds a row log — a JSONL table file, a journal, a
// collector push log. Rows delivered without an index (plain Row: producers outside the
// sweep engine) are numbered by a local counter.
type Recorder struct {
	put  func(Record) error
	file string
	meta Meta
	next int
}

// NewRecorder returns a Recorder handing its records to put. file is
// the output stem its table record names (see TableRecord).
func NewRecorder(file string, put func(Record) error) *Recorder {
	return &Recorder{put: put, file: file}
}

// Begin records the table declaration.
func (s *Recorder) Begin(m Meta) error {
	s.meta, s.next = m, 0
	return s.put(TableRecord(m, s.file))
}

// Row records one row under the next locally counted index.
func (s *Recorder) Row(row []string) error {
	if err := s.IndexedRow(s.next, row); err != nil {
		return err // a refused row takes no index
	}
	s.next++
	return nil
}

// IndexedRow records one row under its global index.
func (s *Recorder) IndexedRow(index int, row []string) error {
	return s.MetricRow(Row{Index: index, Row: row})
}

// MetricRow records one row under its global index with its refinement
// metric, if it has one. A row of another width than the header is
// refused, not recorded.
func (s *Recorder) MetricRow(r Row) error {
	if err := s.meta.CheckRow(r.Index, r.Row); err != nil {
		return err
	}
	return s.put(RowRecord(s.meta.Name, r))
}

// End is a no-op: every record was handed on as it arrived.
func (s *Recorder) End() error { return nil }

// Table is the folded state of one table: its declaration, the rows
// seen so far, every known refinement metric (from rows and metric-only
// records alike) and, once an end record arrives, its total row count.
// A nil *Table is an undeclared table and answers every query with
// "nothing".
type Table struct {
	Meta    Meta
	File    string // output stem; "" until a table record names one
	rows    map[int][]string
	metrics map[int]float64
	next    int
	end     int // the row count an end record gave; -1 before one
}

// Len is the number of rows held.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return len(t.rows)
}

// Next is one past the highest row index held.
func (t *Table) Next() int {
	if t == nil {
		return 0
	}
	return t.next
}

// At reports what is known at a global index: the row, if one is held
// (ok), and the refinement metric whenever it is known — from the row
// or, ok or not, from a metric-only record.
func (t *Table) At(index int) (r Row, ok bool) {
	if t == nil {
		return Row{}, false
	}
	r.Index = index
	r.Row, ok = t.rows[index]
	r.Metric, r.HasMetric = t.metrics[index]
	return r, ok
}

// Ended reports the table's total row count, if an end record gave it.
func (t *Table) Ended() (rows int, ok bool) {
	if t == nil || t.end < 0 {
		return 0, false
	}
	return t.end, true
}

// Complete is nil for a table whose rows are exactly 0..Len()-1 and,
// when it is ended, exactly as many as its end record counts; otherwise
// it names the first gap or the missing tail. (Without an end record a
// missing tail is invisible to it; a collector, whose logs carry none,
// gates on every shard having reported done instead.)
func (t *Table) Complete() error {
	for i := range len(t.rows) {
		if _, ok := t.rows[i]; !ok {
			return fmt.Errorf("rowlog: gap in table %q at row %d (holds %d rows; a shard's output is missing or incomplete)",
				t.Meta.Name, i, len(t.rows))
		}
	}
	if n, ok := t.Ended(); ok && len(t.rows) != n {
		return fmt.Errorf("rowlog: table %q holds %d of its %d rows (a shard's output is missing or cut short)",
			t.Meta.Name, len(t.rows), n)
	}
	return nil
}

// Clone copies the table's state, for a reader that must not hold the
// owner's lock while it replays. Row cells are shared: no one writes
// to a row once applied.
func (t *Table) Clone() *Table {
	c := *t
	c.rows, c.metrics = maps.Clone(t.rows), maps.Clone(t.metrics)
	return &c
}

// Replay streams the table into sink in index order — the exact call
// sequence of an unsharded single-process run, so a deterministic sink
// renders identical bytes. It refuses, before the first call, a table
// that is not Complete.
func (t *Table) Replay(sink Sink) error {
	if err := t.Complete(); err != nil {
		return err
	}
	if err := sink.Begin(t.Meta); err != nil {
		return err
	}
	for i := range len(t.rows) {
		r, _ := t.At(i)
		if err := Emit(sink, r); err != nil {
			return err
		}
	}
	return sink.End()
}

// Set folds records into per-table state. The zero value is an empty
// set. It is not safe for concurrent use.
type Set struct {
	tables map[string]*Table
}

// Table returns the named table, nil if it was never declared.
func (s *Set) Table(name string) *Table { return s.tables[name] }

// Names lists the declared tables in sorted order.
func (s *Set) Names() []string { return slices.Sorted(maps.Keys(s.tables)) }

// Apply folds one record (from Decode or a constructor) into the set
// and reports whether it was fresh — told the set something new — or a
// duplicate of what it holds. What a duplicate means is the caller's
// policy: a journal or a collector skips it (replays are idempotent), a
// merge of disjoint shard outputs treats a duplicate row as an error.
// A re-declaration is fresh only when it names the output stem the set
// lacked. An error means the record contradicts the set: a row or
// metric of an undeclared table, a table re-declared with a different
// header, a row of another width than its table's header, or an end of
// an undeclared table or counting other rows than an end already held.
func (s *Set) Apply(rec Record) (fresh bool, err error) {
	switch rec.Type {
	case TypeTable:
		t := s.tables[rec.Name]
		if t == nil {
			if s.tables == nil {
				s.tables = map[string]*Table{}
			}
			s.tables[rec.Name] = &Table{
				Meta: Meta{Name: rec.Name, Note: rec.Note, Header: rec.Header}, File: rec.File,
				rows: map[int][]string{}, metrics: map[int]float64{}, end: -1,
			}
			return true, nil
		}
		if !slices.Equal(t.Meta.Header, rec.Header) {
			return false, fmt.Errorf("rowlog: table %q re-declared with a different header", rec.Name)
		}
		if t.File == "" && rec.File != "" {
			t.File = rec.File
			return true, nil
		}
	case TypeRow, TypeMetric, TypeEnd:
		t := s.tables[rec.Table]
		if t == nil {
			return false, fmt.Errorf("rowlog: %s record for undeclared table %q", rec.Type, rec.Table)
		}
		if rec.Type == TypeEnd {
			switch n := *rec.Rows; {
			case t.end < 0:
				t.end = n
				return true, nil
			case t.end != n:
				return false, fmt.Errorf("rowlog: table %q ended at %d rows and again at %d", rec.Table, t.end, n)
			}
			return false, nil
		}
		i := *rec.Index
		if rec.Type == TypeRow {
			if err := t.Meta.CheckRow(i, rec.Row); err != nil {
				return false, err
			}
			if _, dup := t.rows[i]; dup {
				return false, nil
			}
			t.rows[i] = rec.Row
			t.next = max(t.next, i+1)
		} else if _, dup := t.metrics[i]; dup {
			return false, nil
		}
		if rec.Metric != nil {
			t.metrics[i] = *rec.Metric
		}
		return true, nil
	}
	return false, nil // journal stamps carry no table state
}

// Records yields the set's canonical log: the fingerprint stamp, then
// per table in name order its declaration, its rows in index order
// (carrying their metrics), the metric-only checkpoints no row
// supersedes and its end, if it has one. Loading the yielded records
// reproduces the set, so a log rewritten from its own load is a fixed
// point.
func (s *Set) Records(fingerprint string) iter.Seq[Record] {
	return func(yield func(Record) bool) {
		if !yield(stamp(fingerprint)) {
			return
		}
		for _, name := range s.Names() {
			t := s.tables[name]
			if !yield(TableRecord(t.Meta, t.File)) {
				return
			}
			for _, i := range slices.Sorted(maps.Keys(t.rows)) {
				r, _ := t.At(i)
				if !yield(RowRecord(name, r)) {
					return
				}
			}
			for _, i := range slices.Sorted(maps.Keys(t.metrics)) {
				if _, owned := t.rows[i]; !owned && !yield(MetricRecord(name, i, t.metrics[i])) {
					return
				}
			}
			if n, ok := t.Ended(); ok && !yield(EndRecord(name, n)) {
				return
			}
		}
	}
}
