package rowlog

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// ErrMismatch reports a log whose fingerprint stamp differs from the
// one the opener runs under: appending would splice incompatible runs.
var ErrMismatch = errors.New("rowlog: log written under a different fingerprint")

// File is a row log on disk, open for appending. Every Append is one
// write of one complete line, so a kill loses at most the record being
// written; Open repairs that on the way in.
type File struct {
	path, fingerprint string
	f                 *os.File
}

// Create starts a fresh log at path, stamped with fingerprint. It
// refuses to overwrite a log that already holds records — the likeliest
// cause is an operator re-running a crashed sweep without -resume, and
// truncating the checkpoint would destroy exactly the progress it
// exists to protect.
func Create(path, fingerprint string) (*File, error) {
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return nil, fmt.Errorf("rowlog: %s already holds records; pass -resume to continue it or remove it to start over", path)
	}
	l := &File{path: path, fingerprint: fingerprint}
	if err := l.Rewrite(new(Set)); err != nil {
		return nil, err
	}
	return l, nil
}

// Open loads the log at path into set and leaves it open for appending.
// A missing file is an empty log. A stamp that differs from fingerprint
// is ErrMismatch; a corrupt line is an error naming it; a torn final
// line is dropped. The file is then rewritten from the loaded state
// (see Rewrite), so what is appended to is always exactly one stamp
// plus the live records, however many kills, concatenations and
// superseded checkpoints the old bytes had accumulated.
func Open(path, fingerprint string, set *Set) (*File, error) {
	in, err := os.Open(path)
	switch {
	case err == nil:
		err = Load(in, func(rec Record) error {
			if rec.Type == TypeJournal && rec.Fingerprint != fingerprint {
				return fmt.Errorf("%w: log has %q, run has %q", ErrMismatch, rec.Fingerprint, fingerprint)
			}
			_, err := set.Apply(rec)
			return err
		})
		in.Close()
		if err != nil && !errors.Is(err, ErrTorn) {
			return nil, err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	l := &File{path: path, fingerprint: fingerprint}
	if err := l.Rewrite(set); err != nil {
		return nil, err
	}
	return l, nil
}

// Append writes one record as one line.
func (l *File) Append(rec Record) error { return rec.Encode(l.f) }

// Rewrite replaces the file with set.Records under the file's
// fingerprint and reopens it for appending. The replacement is
// atomic: records go to a sibling <path>.compact file that is synced
// and renamed over the log only once complete, so a crash leaves either
// the old bytes or the new, never a hybrid, and a stale .compact from
// such a crash is simply overwritten next time. If the rewrite fails
// the log stays closed: a later Append errors instead of landing in an
// unlinked file.
func (l *File) Rewrite(set *Set) error {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	tmpPath := l.path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	for rec := range set.Records(l.fingerprint) {
		if err = rec.Encode(w); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// The commit point: before it a reader sees the old log, after
		// it the rewritten one; both describe the same records.
		err = os.Rename(tmpPath, l.path)
	}
	if err != nil {
		os.Remove(tmpPath)
		return err
	}
	l.f, err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	return err
}

// Close closes the file; every appended record is already written.
func (l *File) Close() error { return l.f.Close() }
