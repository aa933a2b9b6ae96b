// Package rowlog owns the one fact every results path of a sweep moves
// around — "(table, global index, row) plus an optional refinement
// metric" — and the one line format it is written in. A checkpoint
// journal (a sharded run's one output, and a `figures -merge` input), a
// JSONL table output and a collectd push body are all row logs: JSON
// Lines of Record (the grammar is tabulated in DESIGN.md §4a); only a
// journal ends its tables, with a record of each one's row count.
// Recorder is the Sink that writes a table as records; Set folds
// records into per-table state and replays a complete table into a
// Sink; File is a Set's append-only, atomically rewritable home on disk.
package rowlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The record types. Tags are schema: compare against these constants.
const (
	TypeJournal = "journal" // first line of a journal: the run's fingerprint
	TypeTable   = "table"   // declares a table before any of its rows
	TypeRow     = "row"     // one completed row under its global index
	TypeMetric  = "metric"  // the refinement metric of a row another shard owns
	TypeEnd     = "end"     // a journaled table's last record: its total row count
)

// Record is one line of a row log. Which fields a line carries depends
// on Type; field order and omitempty are chosen so that each type
// marshals to exactly the bytes the journal and the JSONL sink have
// always written.
type Record struct {
	Type string `json:"type"`

	Fingerprint string `json:"fingerprint,omitempty"` // journal

	// table. File is the table's output stem (its CSV name without
	// .csv), carried on the push wire and in a figures journal.
	Name   string   `json:"name,omitempty"`
	Note   string   `json:"note,omitempty"`
	Header []string `json:"header,omitempty"`
	File   string   `json:"file,omitempty"`

	// row and metric, keyed (Table, Index). A row's Metric is optional;
	// a metric record is nothing else. An end names its Table and Rows,
	// the row count of the whole (unsharded) table.
	Table  string   `json:"table,omitempty"`
	Index  *int     `json:"index,omitempty"`
	Row    []string `json:"row,omitempty"`
	Metric *float64 `json:"metric,omitempty"`
	Rows   *int     `json:"rows,omitempty"`
}

// stamp is the first line of a journal.
func stamp(fingerprint string) Record {
	return Record{Type: TypeJournal, Fingerprint: fingerprint}
}

// TableRecord declares a table. file is its output stem, which collectd
// and `figures -merge` write it under; "" where no one writes it out.
func TableRecord(m Meta, file string) Record {
	return Record{Type: TypeTable, Name: m.Name, Note: m.Note, Header: m.Header, File: file}
}

// RowRecord is r as a row of the named table.
func RowRecord(table string, r Row) Record {
	rec := Record{Type: TypeRow, Table: table, Index: &r.Index, Row: r.Row}
	if r.HasMetric {
		rec.Metric = &r.Metric
	}
	return rec
}

// MetricRecord checkpoints the metric of a row the writer does not own.
func MetricRecord(table string, index int, metric float64) Record {
	return Record{Type: TypeMetric, Table: table, Index: &index, Metric: &metric}
}

// EndRecord closes a table of rows rows in all: the journal's word that
// the run finished it, which a merge needs to tell a complete table from
// one whose tail a shard never wrote.
func EndRecord(table string, rows int) Record {
	return Record{Type: TypeEnd, Table: table, Rows: &rows}
}

// Encode writes the record to w as one newline-terminated line in one
// Write call.
func (r Record) Encode(w io.Writer) error { return json.NewEncoder(w).Encode(r) }

// Decode parses and validates one log line. It is the only door from
// bytes to Record, so everything downstream (Set.Apply in particular)
// may rely on a row or metric having a non-negative Index, a metric
// having a value, an end having a non-negative row count and a table
// having a header.
func Decode(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return r, fmt.Errorf("corrupt record %q: %w", line, err)
	}
	switch r.Type {
	case TypeJournal:
	case TypeTable:
		if len(r.Header) == 0 {
			return r, fmt.Errorf("table %q declared without a header", r.Name)
		}
	case TypeRow, TypeMetric:
		if r.Index == nil || *r.Index < 0 {
			return r, fmt.Errorf("%s record of table %q without a non-negative index", r.Type, r.Table)
		}
		if r.Type == TypeMetric && r.Metric == nil {
			return r, fmt.Errorf("metric record %d of table %q without a value", *r.Index, r.Table)
		}
	case TypeEnd:
		if r.Rows == nil || *r.Rows < 0 {
			return r, fmt.Errorf("end record of table %q without a non-negative row count", r.Table)
		}
	default:
		return r, fmt.Errorf("unknown record type %q", r.Type)
	}
	return r, nil
}

// ErrTorn reports a log whose final line has neither a newline nor a
// complete JSON value — what a kill mid-write leaves behind. Every
// record before it was applied. (A complete value that lost only its
// newline is a complete record, not a torn one.)
var ErrTorn = errors.New("last record cut short")

// MaxLine bounds one log line. Logs arrive from outside the process (a
// push body, files named on a command line), so Load refuses a longer
// line instead of buffering it.
const MaxLine = 16 << 20

// Load decodes the log in r line by line and hands each record to
// apply, stopping at the first line that is torn, longer than MaxLine or
// fails to decode or apply; the error names the line.
func Load(r io.Reader, apply func(Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) { // ScanLines, newline kept
		n, line, err := bufio.ScanLines(data, atEOF)
		if line != nil {
			line = data[:n]
		}
		return n, line, err
	})
	n := 1
	for ; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, err := Decode(line)
		if err == nil {
			err = apply(rec)
		} else if line[len(line)-1] != '\n' && !json.Valid(line) {
			err = ErrTorn
		}
		if err != nil {
			return fmt.Errorf("rowlog: line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("rowlog: line %d: %w", n, err)
	}
	return nil
}
