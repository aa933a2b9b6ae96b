package proxy

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"sync"

	"streamcache/internal/par"
)

// PrefixStore holds the actual bytes of cached object prefixes. The
// core.Cache accounts for space and decides placement; the store
// materializes the data. It is safe for concurrent use.
//
// Storage is a chain of segments per object rather than one growing
// []byte: a relay's fetch hands over the segments it filled (adopt),
// AppendAt copies into segments of the store's own, truncation drops
// whole segments plus a logical tail limit, and reads are zero-copy — a
// prefixView captured under the lock aliases the segment chain and
// stays valid after the lock is released, because published segment
// bytes are immutable and the view holds a reference to every segment
// it reads (see segment). A chain holds one reference per entry.
type PrefixStore struct {
	state par.Guarded[storeState]
}

// storeState is what a PrefixStore's lock guards.
type storeState struct {
	data map[int]*prefixEntry
	// total is the running sum of all entry lengths, so TotalBytes is
	// O(1) instead of an O(objects) scan under the lock per /stats.
	total int64
}

// prefixEntry is one object's segment chain. Invariants (under the
// store lock):
//
//   - Segments are in object-offset order, and segs[i] holds object
//     bytes [segs[i].off, segs[i+1].off) — so a lock-free reader
//     derives every non-tail segment's valid range from the
//     (immutable) next segment's off.
//   - length is the logical prefix length. After a mid-segment
//     truncation the tail segment still holds stale bytes beyond
//     length; they are sealed, never overwritten — the next AppendAt
//     opens a fresh segment at offset length instead. That is what
//     keeps views captured before the truncation byte-stable.
type prefixEntry struct {
	segs   []*segment
	length int64
	// open reports that AppendAt may fill the tail segment further: the
	// store opened it and has not cut into it since. A tail adopted
	// from a relay is never open — its fetch is its only writer.
	open bool
	// hdr is the rendered X-Cache response header value for length, so
	// the warmed prefix-hit serve path assigns it without allocating. It
	// is nil while a relay's adopt calls are moving the length: AppendAt
	// and Truncate render it, so a miss pays for one render (the
	// Truncate that ends its relay), not one per fetched piece.
	hdr []string
}

// render fills in the X-Cache value for the entry's current length.
func (e *prefixEntry) render() {
	if e.hdr == nil {
		e.hdr = []string{"HIT-PREFIX; bytes=" + strconv.FormatInt(e.length, 10)}
	}
}

func (e *prefixEntry) tail() *segment {
	if len(e.segs) == 0 {
		return nil
	}
	return e.segs[len(e.segs)-1]
}

// NewPrefixStore returns an empty store.
func NewPrefixStore() *PrefixStore {
	s := &PrefixStore{}
	s.state.With(func(st *storeState) { st.data = make(map[int]*prefixEntry) })
	return s
}

// prefixView is a consistent point-in-time snapshot of an object's
// prefix: at most n bytes, readable without the store lock. The view
// aliases immutable segment memory and holds a reference to each
// segment it covers, so it remains byte-stable even if the store
// concurrently truncates or extends the object and the pool hands the
// dropped segments to another transfer. release gives the references
// back; a view that is never released leaves its segments to the GC.
type prefixView struct {
	segs []*segment // exactly the segments holding bytes below n
	n    int64
	// hdr is the store's prebuilt X-Cache value when the view covers
	// the full stored prefix; nil when the caller's clamp cut it short
	// or a relay is still growing the prefix (the caller renders its own
	// header then).
	hdr []string
}

// Len returns the byte length of the view.
func (v prefixView) Len() int64 { return v.n }

// release drops the view's references; its bytes must not be read
// after. Call it once.
func (v prefixView) release() {
	for _, seg := range v.segs {
		seg.unref()
	}
}

// WriteTo streams the snapshot to w without copying: each write aliases
// a segment's published bytes directly.
func (v prefixView) WriteTo(w io.Writer) (int64, error) { return v.WriteRangeTo(w, 0) }

// WriteRangeTo streams the snapshot's bytes at object offsets
// [from, Len()) to w without copying — what a peer or a ranged client
// resuming mid-prefix is served. A from at or past the view length
// writes nothing; one at or below 0 writes the whole view. A w that can
// take them all at once (the wire loop's response writer, which sends
// them with the response head in one writev) is handed every segment in
// a single call; any other gets one Write per segment.
func (v prefixView) WriteRangeTo(w io.Writer, from int64) (int64, error) {
	bw, vectored := w.(buffersWriter)
	var vec *[][]byte
	if vectored {
		vec = vecPool.Get().(*[][]byte)
	}
	var written int64
	for i, seg := range v.segs {
		end := v.n
		if i+1 < len(v.segs) && v.segs[i+1].off < end {
			end = v.segs[i+1].off
		}
		if end <= from {
			continue
		}
		lo := seg.off
		if from > lo {
			lo = from
		}
		chunk := seg.buf[lo-seg.off : end-seg.off]
		if vectored {
			*vec = append(*vec, chunk)
			continue
		}
		n, err := w.Write(chunk)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	if !vectored {
		return written, nil
	}
	written, err := bw.WriteBuffers(*vec)
	clear(*vec) // a pooled vector must not keep evicted segments alive
	*vec = (*vec)[:0]
	vecPool.Put(vec)
	return written, err
}

// buffersWriter is the io.Writer that takes a whole vector of byte
// slices in one call and returns the bytes written, not retaining the
// vector: httpd's response writer.
type buffersWriter interface {
	WriteBuffers([][]byte) (int64, error)
}

// vecPool recycles the vectors WriteRangeTo gathers a view's segments
// into, so a vectored prefix hit allocates nothing.
var vecPool = sync.Pool{New: func() any { return new([][]byte) }}

// View captures a zero-copy snapshot of object id's prefix, clamped to
// max bytes. The empty view has Len() 0. The references are taken here,
// under the lock that excludes dropFrom, while the chain's own keep the
// segments alive: one atomic add per segment, on a line the hot
// object's shard already serialises.
func (s *PrefixStore) View(id int, max int64) (v prefixView) {
	s.state.Read(func(st *storeState) {
		e := st.data[id]
		if e == nil || e.length == 0 || max <= 0 {
			return
		}
		v = prefixView{segs: e.segs, n: e.length, hdr: e.hdr}
		if v.n > max {
			v.n = max
			v.hdr = nil
			for v.segs[len(v.segs)-1].off >= v.n {
				v.segs = v.segs[:len(v.segs)-1]
			}
		}
		for _, seg := range v.segs {
			seg.ref()
		}
	})
	return v
}

// Prefix returns a copy of object id's cached prefix (nil when absent).
// It is a test and tooling hook; the serve path uses View for zero-copy
// access.
func (s *PrefixStore) Prefix(id int) []byte {
	v := s.View(id, math.MaxInt64)
	if v.n == 0 {
		return nil
	}
	defer v.release()
	var buf bytes.Buffer
	buf.Grow(int(v.n))
	if _, err := v.WriteTo(&buf); err != nil {
		return nil // bytes.Buffer does not fail; keep the linter honest
	}
	return buf.Bytes()
}

// Len returns the stored prefix length of object id.
func (s *PrefixStore) Len(id int) (n int64) {
	s.state.Read(func(st *storeState) {
		if e := st.data[id]; e != nil {
			n = e.length
		}
	})
	return n
}

// grow resolves an append of object bytes [offset, end) to object id
// under limit against what is stored: it returns the entry (a fresh
// one, for the caller to file under id, when the object has none yet)
// and the prefix length the append brings it to, or 0 when the bytes
// are all present already, lie beyond a hole, or exceed limit.
func (st *storeState) grow(id int, offset, end, limit int64) (*prefixEntry, int64) {
	e := st.data[id]
	var curLen int64
	if e != nil {
		curLen = e.length
	}
	if end > limit {
		end = limit
	}
	if offset > curLen || end <= curLen {
		return nil, 0
	}
	if e == nil {
		e = &prefixEntry{}
	}
	return e, end
}

// dropFrom removes the segments that start at or past object offset
// off, releasing the chain's reference to each: one no view or relay
// still holds goes back to the pool. The full-slice clip forces the
// next append onto a fresh backing array, so slice headers captured by
// in-flight views never observe a reused slot.
func (e *prefixEntry) dropFrom(off int64) {
	k := len(e.segs)
	for k > 0 && e.segs[k-1].off >= off {
		k--
		e.segs[k].unref()
	}
	if k < len(e.segs) {
		e.segs = e.segs[:k:k]
	}
}

// resize sets the entry's logical length and returns the change.
func (e *prefixEntry) resize(to int64) int64 {
	delta := to - e.length
	e.length = to
	e.hdr = nil
	return delta
}

// AppendAt extends object id's prefix with a copy of data that belongs
// at the given object offset, but never beyond limit bytes total.
// Because object content at a given offset is immutable, overlapping
// writes are deduplicated: bytes already present are skipped, and data
// arriving beyond the current prefix end (a gap) is dropped. It returns
// the number of bytes retained.
func (s *PrefixStore) AppendAt(id int, offset int64, data []byte, limit int64) (take int64) {
	s.state.With(func(st *storeState) {
		e, to := st.grow(id, offset, offset+int64(len(data)), limit)
		if to == 0 {
			return
		}
		st.data[id] = e
		for at := e.length; at < to; {
			seg := e.tail()
			if !e.open || at == seg.end() {
				// No tail, tail full, or a tail the store may not write
				// (sealed by a mid-segment truncation, or a relay's):
				// open a fresh segment at the logical end, no larger
				// than what limit lets arrive.
				seg = newSegment(at, min(segmentSize, limit-at))
				e.segs = append(e.segs, seg)
				e.open = true
			}
			at += int64(copy(seg.buf[at-seg.off:], data[at-offset:to-offset]))
		}
		take = e.resize(to)
		st.total += take
		e.render()
	})
	return take
}

// adopt extends object id's prefix with the published bytes
// [seg.off, end) of a relay's segment by reference: the outcome of
// AppendAt(id, seg.off, seg.buf[:end-seg.off], limit) without the copy.
// The relay keeps filling seg past end; that is safe because views
// never read past the length they captured. A chain that seg joins
// takes a reference to it.
func (s *PrefixStore) adopt(id int, seg *segment, end, limit int64) {
	s.state.With(func(st *storeState) {
		e, to := st.grow(id, seg.off, end, limit)
		if to == 0 {
			return
		}
		st.data[id] = e
		if e.tail() != seg {
			// Content at an offset is immutable, so where seg overlaps
			// what is stored its bytes stand in for the stored ones:
			// drop the segments it covers whole; the view clips the one
			// before it at seg.off.
			e.dropFrom(seg.off)
			seg.ref()
			e.segs = append(e.segs, seg)
			e.open = false
		}
		st.total += e.resize(to)
	})
}

// Truncate shrinks object id's prefix to at most n bytes, deleting it
// entirely at zero, and renders the X-Cache header of what it leaves —
// the relay that grew a prefix ends by truncating it to what the cache
// accounts for. Dropped segments lose the chain's reference; an
// in-flight zero-copy view that still aliases one holds its own.
func (s *PrefixStore) Truncate(id int, n int64) {
	s.state.With(func(st *storeState) {
		e := st.data[id]
		if e == nil {
			return
		}
		if n <= 0 {
			st.total -= e.length
			e.dropFrom(0)
			delete(st.data, id)
			return
		}
		if n < e.length {
			st.total += e.resize(n)
			e.open = false
			e.dropFrom(n)
		}
		e.render()
	})
}

// TotalBytes returns the sum of all stored prefix lengths, maintained
// incrementally on append and truncate.
func (s *PrefixStore) TotalBytes() (n int64) {
	s.state.Read(func(st *storeState) { n = st.total })
	return n
}

// scanTotalBytes recomputes the total by walking every entry — the
// O(objects) reference the running counter is tested against.
func (s *PrefixStore) scanTotalBytes() (total int64) {
	s.state.Read(func(st *storeState) {
		for _, e := range st.data {
			total += e.length
		}
	})
	return total
}
