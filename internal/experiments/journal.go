package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"streamcache/internal/rowlog"
)

// The checkpoint journal: a row log (internal/rowlog; the line grammar
// is DESIGN.md §4a) of completed rows that makes long sweeps resumable.
// The engine appends every row of a run with Scale.Journal set as one
// line keyed (table name, global row index); adaptive-sweep rows carry
// the full-precision refinement metric so resumed refinement ranks
// intervals on exactly the values a fresh run would compute, metrics
// fetched from other shards are checkpointed as metric records, and
// each table closes with an end record of its row count. A sweep
// restarted on its journal replays journaled rows instead of
// re-simulating them, so an interrupted run finishes from where it
// died. A sharded run's journal is also its only output: MergeJournals
// folds the shards' journals into the canonical tables, and refuses a
// table no journal ended or whose rows fall short of its end.

// Journal is the checkpoint store of one sweep process (Scale.Journal):
// a rowlog.Set of completed rows, loaded from a prior run and consulted
// by the engine before it simulates a point, and the rowlog.File every
// fresh record is appended to. All methods are safe for concurrent
// use; one journal may span many experiments.
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

// JournalSink is a RowSink that appends what it is handed to a journal:
// a rowlog.Recorder whose records the journal applies. The engine
// journals a run through Scale.Journal; this sink is for rows that do
// not come from the engine.
type JournalSink = rowlog.Recorder

// NewJournalSink wraps a journal as a RowSink whose tables name no file
// and are never ended.
func NewJournalSink(j *Journal) *JournalSink { return rowlog.NewRecorder("", j.apply) }

// applyDisjoint folds rec into set. Shards own disjoint rows, so a row
// the set already holds is an error; metric-only records (a journal's
// checkpoints of metrics fetched from other shards) are applied.
func applyDisjoint(set *rowlog.Set, rec rowlog.Record) error {
	fresh, err := set.Apply(rec)
	if err == nil && !fresh && rec.Type == rowlog.TypeRow {
		err = fmt.Errorf("duplicate row index %d of table %q", *rec.Index, rec.Table)
	}
	return err
}

// MergeShards is MergeJournals' fold for one table, from row logs that
// need carry no stamp (journals or JSONLSink outputs), replayed through
// sink in index order: the bytes a single-process run streams. A
// duplicate index (two shards claiming one row) or a gap (a shard's rows
// missing) is an error, so the merged table is the unsharded stream.
func MergeShards(parts []io.Reader, sink RowSink) error {
	if len(parts) == 0 {
		return fmt.Errorf("experiments: merge of zero shard outputs")
	}
	var set rowlog.Set
	for p, part := range parts {
		if err := rowlog.Load(part, func(rec rowlog.Record) error { return applyDisjoint(&set, rec) }); err != nil {
			return fmt.Errorf("experiments: shard %d: %w", p, err)
		}
	}
	names := set.Names()
	if len(names) != 1 {
		return fmt.Errorf("experiments: merge inputs describe %d tables %q, want exactly one", len(names), names)
	}
	return set.Table(names[0]).Replay(sink)
}

// MergeJournals folds the journals of one run into its tables,
// complete and in name order, each naming the file stem it is written
// under (WriteTable). The journals' stamps (Scale.Fingerprint) must name
// every shard of one run once, in any order, and every table must be
// ended — every shard computes the same row count — and hold exactly
// rows 0..N-1 of its N: a shard that never reached a table, or was cut
// short inside it, owned nothing there or leaves it short. A duplicate
// row, a ragged row, two ends that disagree or a table that names no
// file is refused too, the error naming the journal and line.
func MergeJournals(paths []string) ([]*rowlog.Table, error) {
	var (
		set rowlog.Set
		run string   // the run the first stamp names
		by  []string // per shard index, the journal that is that shard
	)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		err = rowlog.Load(f, func(rec rowlog.Record) error {
			if rec.Type != rowlog.TypeJournal {
				return applyDisjoint(&set, rec)
			}
			sh, id, err := stampShard(rec.Fingerprint)
			switch {
			case err != nil:
				return err
			case by == nil:
				run, by = id, make([]string, sh.Count)
			case sh.Count != len(by):
				return fmt.Errorf("shard %s, but %s is a shard of %d: shards of two counts", sh, paths[0], len(by))
			case id != run:
				return fmt.Errorf("stamp names another run than %s's: %q, want %q", paths[0], id, run)
			case by[sh.Index] != "":
				return fmt.Errorf("shard %s given twice (%s is that shard too)", sh, by[sh.Index])
			}
			by[sh.Index] = path
			return nil
		})
		f.Close()
		if err == nil && !slices.Contains(by, path) {
			err = fmt.Errorf("no journal stamp")
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: journal %s: %w", path, err)
		}
	}
	if len(by) == 0 {
		return nil, fmt.Errorf("experiments: merge of zero journals")
	}
	if i := slices.Index(by, ""); i >= 0 {
		return nil, fmt.Errorf("experiments: shard %d/%d missing: no journal given is that shard", i, len(by))
	}
	var tables []*rowlog.Table
	for _, name := range set.Names() {
		t := set.Table(name)
		err := t.Complete()
		if _, ended := t.Ended(); !ended {
			err = fmt.Errorf("table %q has no end record: no shard finished it", name)
		} else if err == nil && t.File == "" {
			err = fmt.Errorf("table %q names no output file: its journals were not written by figures", name)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// WriteTable writes a table MergeJournals or a collector holds complete
// into dir as <File>.csv and, with jsonl, <File>.jsonl: the bytes a
// single-process run streams.
func WriteTable(dir string, t *rowlog.Table, jsonl bool) error {
	if t.File == "" {
		return fmt.Errorf("experiments: table %q names no output file", t.Meta.Name)
	}
	write := func(ext string, sink func(io.Writer) RowSink) error {
		f, err := os.Create(filepath.Join(dir, t.File+ext))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err = t.Replay(sink(w)); err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	err := write(".csv", func(w io.Writer) RowSink { return NewCSVSink(w) })
	if err == nil && jsonl {
		err = write(".jsonl", func(w io.Writer) RowSink { return NewJSONLSink(w) })
	}
	return err
}
