package proxy

import "sync"

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
// here. A segment is recycled to segPool only when it is full-size,
// the store never adopted it and no relay reader has it pinned;
// every other segment dies to the GC.
type segment struct {
	off int64  // object offset of buf[0]; immutable after creation
	buf []byte // len is the segment's capacity; never resliced

	// Guarded by the owning relay's lock; the store never touches them.
	pins    int  // relay readers currently writing this segment to a client
	adopted bool // the store references this segment: never recycle
}

// end is the object offset one past the segment's capacity.
func (s *segment) end() int64 { return s.off + int64(len(s.buf)) }

// segPool recycles full-size segments across relays.
var segPool = sync.Pool{New: func() any { return &segment{buf: make([]byte, segmentSize)} }}

// newSegment returns a segment of n bytes (at most segmentSize)
// starting at object offset off. Only full-size segments come from the
// pool: an object smaller than a segment owns only what it needs.
func newSegment(off, n int64) *segment {
	if n < segmentSize {
		return &segment{off: off, buf: make([]byte, n)}
	}
	s := segPool.Get().(*segment)
	s.off, s.pins, s.adopted = off, 0, false
	return s
}
