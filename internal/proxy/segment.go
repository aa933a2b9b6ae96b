package proxy

import (
	"sync"
	"sync/atomic"
)

// segmentSize is the byte granularity of the proxy data plane: the
// PrefixStore and the relay ring are built from segments of at most
// this size, and share them (one allocation currency, one pool).
const segmentSize = 64 * 1024

// segment is one chunk of object bytes, at most segmentSize long.
//
// Aliasing contract (DESIGN.md "Segment memory model"): a byte of a
// segment, once published to a reader, is never rewritten while
// anything can alias it. The one writer — the relay's fetch, or
// AppendAt — only fills bytes past everything published, and the fill
// watermark lives with the owner (relay.head, prefixEntry.length), not
// here. Everything that can alias a segment holds a reference to it —
// a relay's ring slot, a relay reader's batch, a store's chain, a
// prefixView — and the last reference out returns a full-size segment
// to segPool, so the contract is also what makes reuse safe.
type segment struct {
	off int64  // object offset of buf[0]; immutable while referenced
	buf []byte // len is the segment's capacity; never resliced

	refs atomic.Int32
}

// end is the object offset one past the segment's capacity.
func (s *segment) end() int64 { return s.off + int64(len(s.buf)) }

// ref takes one more reference. The caller holds the lock (the relay's
// or the store's) under which another holder's reference keeps the
// segment alive, so the count it raises is never zero.
func (s *segment) ref() { s.refs.Add(1) }

// unref drops one reference; the last one recycles a full-size
// segment. A holder that never lets go (a view nobody releases) leaves
// its segments to the GC.
func (s *segment) unref() {
	switch n := s.refs.Add(-1); {
	case n < 0:
		panic("proxy: segment reference released twice")
	case n == 0 && len(s.buf) == segmentSize:
		if RecycleHook != nil {
			RecycleHook(s.buf)
		}
		segPool.Put(s)
	}
}

// segPool recycles full-size segments across relays and stores;
// segmentsAllocated and segmentsRecycled count what newSegment made
// afresh and what it took from the pool. Like the pool they are the
// process's, not one Proxy's.
var (
	segPool           sync.Pool
	segmentsAllocated atomic.Int64
	segmentsRecycled  atomic.Int64
)

// RecycleHook, when set, is handed a full-size segment's buffer on its
// way back into the pool. It is nil outside tests, which set it before
// any proxy runs to poison the buffer: a use after recycle then fails a
// byte comparison instead of passing on stale but plausible bytes.
var RecycleHook func(buf []byte)

// newSegment returns a segment of n bytes (at most segmentSize)
// starting at object offset off, holding the caller's reference. Only
// full-size segments come from the pool: an object smaller than a
// segment owns only what it needs.
func newSegment(off, n int64) *segment {
	var s *segment
	if n == segmentSize {
		s, _ = segPool.Get().(*segment)
	}
	if s == nil {
		segmentsAllocated.Add(1)
		s = &segment{buf: make([]byte, n)}
	} else {
		segmentsRecycled.Add(1)
	}
	s.off = off
	s.refs.Store(1)
	return s
}
