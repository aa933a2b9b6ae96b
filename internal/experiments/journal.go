package experiments

import (
	"fmt"
	"io"
	"sync"

	"streamcache/internal/rowlog"
)

// The checkpoint journal: a row log (internal/rowlog; the line grammar
// is DESIGN.md §4a) of completed rows that makes long sweeps resumable.
// Every row that flows through a JournalSink is appended as one line
// keyed (table name, global row index); adaptive-sweep rows carry the
// full-precision refinement metric so resumed refinement ranks intervals
// on exactly the values a fresh run would compute, and metrics fetched
// from other shards are checkpointed as metric records. A sweep
// restarted with the journal as Scale.Resume replays journaled rows
// instead of re-simulating them, so an interrupted run finishes from
// where it died.

// Journal is the checkpoint store of one sweep process: a rowlog.Set of
// completed rows (loaded from a prior run and consulted via
// Scale.Resume) and the rowlog.File every fresh record is appended to
// through JournalSink. All methods are safe for concurrent use; one
// journal may span many experiments.
type Journal struct {
	mu   sync.Mutex
	file *rowlog.File
	set  rowlog.Set
}

// CreateJournal starts a fresh journal at path and stamps it with the
// scale fingerprint. It refuses to overwrite an existing non-empty
// journal: resume it, or remove the file to genuinely start over.
func CreateJournal(path, fingerprint string) (*Journal, error) {
	f, err := rowlog.Create(path, fingerprint)
	if err != nil {
		return nil, err
	}
	return &Journal{file: f}, nil
}

// ResumeJournal opens the journal at path for a resumed run: completed
// records are loaded (a trailing record torn by a kill is discarded),
// the recorded fingerprint is checked against the resuming scale's, and
// the file is rewritten atomically to exactly its live state — one line
// per completed row, superseded and duplicate records dropped — before
// new rows are appended. A missing file is not an error: the resume
// simply has nothing to skip.
func ResumeJournal(path, fingerprint string) (*Journal, error) {
	j := &Journal{}
	f, err := rowlog.Open(path, fingerprint, &j.set)
	if err != nil {
		return nil, err
	}
	j.file = f
	return j, nil
}

// apply folds one record into the journal, appending it to the file
// unless the journal already holds it — replays of a prior run's work
// are not rewritten, so a resumed journal stays duplicate-free.
func (j *Journal) apply(rec rowlog.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.applyLocked(rec)
}

func (j *Journal) applyLocked(rec rowlog.Record) error {
	fresh, err := j.set.Apply(rec)
	if err != nil || !fresh {
		return err
	}
	return j.file.Append(rec)
}

// replay reports what the journal knows at (tableName, index): the
// completed row, if one is held (ok), and the checkpointed refinement
// metric whenever one is — an owned row's, or, ok or not, a metric-only
// record fetched from the exchange by a prior run. Nil-safe on a nil
// receiver (no journal = no skips).
func (j *Journal) replay(tableName string, index int) (r MetricRow, ok bool) {
	if j == nil {
		return MetricRow{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.set.Table(tableName).At(index)
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.file.Close()
}

// JournalSink is the journaling RowSink: every row streamed through it
// is appended to the journal alongside reaching the run's other sinks —
// compose it with them via MultiSink. Rows the engine replayed from the
// same journal are recognized by key and not rewritten.
type JournalSink struct {
	j     *Journal
	table string
}

// NewJournalSink wraps a journal as a RowSink.
func NewJournalSink(j *Journal) *JournalSink {
	return &JournalSink{j: j}
}

// Begin declares the table in the journal.
func (s *JournalSink) Begin(meta TableMeta) error {
	s.table = meta.Name
	return s.j.apply(rowlog.TableRecord(meta, ""))
}

// Row journals a row without engine context under one past the table's
// highest recorded index, holding the lock across the index choice and
// the write so concurrent direct Row calls cannot collide (and sparse
// index sets — a resumed sharded journal — are never overwritten). The
// engine path (MetricRow) supplies true global indices.
func (s *JournalSink) Row(row []string) error {
	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	next := s.j.set.Table(s.table).Next()
	return s.j.applyLocked(rowlog.RowRecord(s.table, MetricRow{Index: next, Row: row}))
}

// MetricRow journals one engine-emitted row under its global index.
func (s *JournalSink) MetricRow(m MetricRow) error {
	return s.j.apply(rowlog.RowRecord(s.table, m))
}

// End is a no-op: every record was written as it was appended.
func (s *JournalSink) End() error { return nil }

// MergeShards reassembles one experiment's canonical row stream from
// the row logs a sharded sweep left behind — per-shard JSONL outputs or
// the shards' journals. The parts must together describe one table;
// rows are keyed by their global index. The merge validates the union —
// duplicate indices (two shards claiming one row) and gaps (a shard's
// output missing or incomplete) are errors, so a merged table is
// guaranteed to be exactly the unsharded stream — and then replays it
// through sink in index order, making the merged CSV/JSONL
// byte-identical to a single-process run. (Fingerprint stamps are not
// compared: shards of one run stamp different fingerprints.)
func MergeShards(parts []io.Reader, sink RowSink) error {
	if len(parts) == 0 {
		return fmt.Errorf("experiments: merge of zero shard outputs")
	}
	var set rowlog.Set
	for p, part := range parts {
		err := rowlog.Load(part, func(rec rowlog.Record) error {
			fresh, err := set.Apply(rec)
			if err == nil && !fresh && rec.Type == rowlog.TypeRow {
				err = fmt.Errorf("duplicate row index %d of table %q", *rec.Index, rec.Table)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("experiments: shard %d: %w", p, err)
		}
	}
	names := set.Names()
	if len(names) != 1 {
		return fmt.Errorf("experiments: merge inputs describe %d tables %q, want exactly one", len(names), names)
	}
	return set.Table(names[0]).Replay(sink)
}
