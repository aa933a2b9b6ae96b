package proxy

import (
	"context"
	"errors"
	"sync"

	"streamcache/internal/par"
)

// relayRingSegments bounds the per-relay buffer: the ring holds at most
// this many segments (16 x 64 KiB = 1 MiB), so one in-flight transfer
// pins a fixed amount of memory no matter how large the object
// remainder is or how slow its slowest reader.
const relayRingSegments = 16

// errRelayLapped reports that the ring dropped bytes a reader had not
// consumed yet: it trails the fastest reader by more than the ring
// holds. The reader must leave the relay and continue from its current
// offset over a private one.
var errRelayLapped = errors.New("proxy: relay reader lapped by the ring")

// relay is one in-flight upstream transfer and the readers streaming
// it — the singleflight of the sharded proxy. A thundering herd of
// clients asking for one cold object costs a single transfer over the
// constrained origin path: the first request starts a fetch goroutine
// and every attached client streams from the ring at its own pace.
//
// A fetched byte is copied into user space once and out once. The
// fetch reads the upstream body straight into the free tail of the
// newest segment (reserve) and publishes by advancing head (publish);
// below the retention limit the shard's PrefixStore adopts that same
// segment by reference; a reader is handed every published byte from
// its offset to head, one aliased chunk per segment (next), and writes
// them to its client in one vectored write with no lock held. Nothing
// published is ever rewritten, so the aliases are stable.
//
// The ring is bounded and paced by its readers: the fetch opens a new
// segment only while head is less than half a ring past the lead — the
// furthest offset any reader has consumed — so TCP back-pressure
// reaches the upstream and a sole reader is never outrun. The other
// half of the ring is history for slower readers: a full ring drops
// its oldest segment, and a reader that trailed the lead by so much
// that its offset is gone (errRelayLapped) demotes itself, so one slow
// client in a herd pins at most the batch it is writing out. The ring
// holds one reference to each of its segments and lets it go with the
// slot; whoever lets go last recycles the segment (segment.unref).
//
// Attached clients are refcounted: when the last one detaches before
// the transfer completes, the fetch is canceled so the constrained
// origin path is not spent on bytes nobody will receive.
type relay struct {
	start, end int64              // object offsets the transfer covers
	cancel     context.CancelFunc // aborts the fetch; set at construction

	state par.Guarded[relayState]
	cond  sync.Cond // on state's lock
}

// relayState is what a relay's lock guards.
type relayState struct {
	// ring[:n] are contiguous segments, oldest first, covering
	// [tail, head) and the unpublished room after head.
	ring [relayRingSegments]*segment
	n    int
	// head is one past the last published byte, tail the oldest offset
	// still held, lead the furthest offset a reader has consumed or
	// waits at.
	head, tail, lead int64
	retain           int64 // PrefixStore retention limit (max over attached requests)
	subs             int   // attached clients (leader included)
	canceled         bool  // last client left an unfinished fetch; abort initiated
	released         bool  // ring recycled; relay is dead
	done             bool  // fetch goroutine is finished with the ring
	err              error
}

// relayBatch is what one step of a reader's loop is handed: the
// published bytes from its offset on, one aliased chunk per segment,
// and the references that keep those segments from being recycled
// while the reader writes the chunks out unlocked. Half a ring is as
// far as the pacing rule lets the fetch lead its lead reader, so the
// cap does not limit a sole reader, and it bounds what a stalled one
// keeps alive once the ring has moved on.
type relayBatch struct {
	segs   [relayRingSegments / 2]*segment
	chunks [relayRingSegments / 2][]byte
	n      int
}

// unpin releases the batch's references and empties it.
func (b *relayBatch) unpin() {
	for i, seg := range b.segs[:b.n] {
		seg.unref()
		b.segs[i], b.chunks[i] = nil, nil
	}
	b.n = 0
}

// newRelay builds a relay for object bytes [start, end) whose fetch
// can be aborted via cancel.
func newRelay(start, end, retain int64, cancel context.CancelFunc) *relay {
	r := &relay{start: start, end: end, cancel: cancel}
	r.state.InitCond(&r.cond)
	r.state.With(func(s *relayState) { s.head, s.tail, s.lead, s.retain = start, start, start, retain })
	return r
}

// attach registers one client reader. It fails only when the relay's
// fetch has already been canceled (every previous reader left), in
// which case the caller must fetch on its own.
func (r *relay) attach() (ok bool) {
	r.state.With(func(s *relayState) {
		if ok = !s.canceled && !s.released; ok {
			s.subs++
		}
	})
	return ok
}

// detach unregisters one client reader, unpinning the batch it still
// held, if any. The last one out aborts an unfinished fetch, which is
// reported.
func (r *relay) detach(held *relayBatch) (aborted bool) {
	if held != nil {
		held.unpin()
	}
	r.state.With(func(s *relayState) {
		s.subs--
		if s.subs == 0 && !s.done && !s.canceled {
			s.canceled = true
			aborted = true
			r.cond.Broadcast() // the fetch may be waiting for a reader
		}
		s.release()
	})
	if aborted && r.cancel != nil {
		r.cancel()
	}
	return aborted
}

// release lets go of the ring once the relay cannot touch it again: no
// reader is attached and the fetch has stopped filling the newest
// segment.
func (s *relayState) release() {
	if s.subs > 0 || !s.done || s.released {
		return
	}
	s.released = true
	for i, seg := range s.ring[:s.n] {
		seg.unref()
		s.ring[i] = nil
	}
	s.n, s.tail = 0, s.head
}

// raiseRetain lifts the store-retention limit to at least n; attaching
// requests call it so a prefix target that grew mid-flight is still
// materialized by the shared fetch.
func (r *relay) raiseRetain(n int64) {
	r.state.With(func(s *relayState) { s.retain = max(s.retain, n) })
}

// room reports whether the fetch may open another segment: it runs at
// most half a ring ahead of the lead reader.
func (s *relayState) room() bool {
	return s.head-s.lead < relayRingSegments*segmentSize/2
}

// reserve returns the segment the next fetched bytes land in — they
// belong at buf[head-off:] — and the store-retention limit, opening a
// segment when the newest is full. Before opening one it waits for
// the lead reader to come within half a ring of head, and reports
// whether it had to. It returns nil once the transfer is complete or
// every reader has left. The fetch goroutine is the only caller.
func (r *relay) reserve() (seg *segment, limit int64, waited bool) {
	r.state.With(func(s *relayState) {
		if s.n > 0 && s.head < s.ring[s.n-1].end() {
			seg, limit = s.ring[s.n-1], s.retain
			return
		}
		if s.head >= r.end {
			return
		}
		for !s.room() && !s.canceled {
			waited = true
			r.cond.Wait()
		}
		if s.canceled {
			return
		}
		if s.n == relayRingSegments {
			// Drop the oldest, at least half a ring behind the lead.
			s.tail = s.ring[0].end()
			s.ring[0].unref()
			s.n = copy(s.ring[:], s.ring[1:])
			s.ring[s.n] = nil
		}
		// No larger than what can still arrive, and split at the
		// retention limit so the store adopts exactly what the cache
		// accounts for.
		size := min(segmentSize, r.end-s.head)
		if s.head < s.retain {
			size = min(size, s.retain-s.head)
		}
		seg, limit = newSegment(s.head, size), s.retain
		s.ring[s.n] = seg
		s.n++
	})
	return seg, limit, waited
}

// publish makes the n bytes the fetch wrote at the newest segment's
// fill mark visible to every reader.
func (r *relay) publish(n int) {
	r.state.With(func(s *relayState) {
		s.head += int64(n)
		r.cond.Broadcast()
	})
}

// finish marks the transfer over (err non-nil when it died early): the
// fetch no longer touches the ring. It wakes every reader.
func (r *relay) finish(err error) {
	r.state.With(func(s *relayState) {
		s.done = true
		s.err = err
		r.cond.Broadcast()
		s.release()
	})
}

// wake prods every blocked reader so it can re-check its own context;
// readers register it with context.AfterFunc.
func (r *relay) wake() {
	r.state.With(func(*relayState) { r.cond.Broadcast() })
}

// next is one step of a reader's loop. The reader has consumed
// everything below object offset off and returns the batch it held;
// next unpins it, then blocks until bytes at off are published, the
// transfer ends, or ctx (the reader's own request context) is
// canceled. It never waits for more than one byte: it fills b with
// every published byte from off to head — all of them under this one
// lock acquisition, up to the batch's capacity — aliased, each segment
// pinned by a reference so that it is not recycled while the reader
// writes the chunks out unlocked. An empty batch ends the loop: err is
// nil after a complete transfer, errRelayLapped when the ring dropped
// offset off (the reader must demote to a private fetch), else what
// ended the reader or the transfer.
func (r *relay) next(ctx context.Context, off int64, b *relayBatch) (err error) {
	b.unpin()
	r.state.With(func(s *relayState) {
		if off > s.lead {
			// A reader waiting past head (a ranged resume) counts in
			// full: the fetch runs unpaced until it has bytes for it.
			paced := !s.room()
			s.lead = off
			if paced && s.room() {
				r.cond.Broadcast() // the fetch was waiting for this reader
			}
		}
		for s.head <= off && !s.done && ctx.Err() == nil {
			r.cond.Wait()
		}
		if err = ctx.Err(); err != nil {
			return
		}
		switch {
		case off < s.tail:
			err = errRelayLapped
		case off >= s.head:
			err = s.err
		default:
			s.pin(off, b)
		}
	})
	return err
}

// pin fills b with the published bytes from off on, one aliased chunk
// per segment, each segment pinned by a reference.
func (s *relayState) pin(off int64, b *relayBatch) {
	i := 0
	for s.ring[i].end() <= off {
		i++
	}
	for ; i < s.n && s.ring[i].off < s.head && b.n < len(b.segs); i++ {
		seg := s.ring[i]
		seg.ref()
		b.segs[b.n] = seg
		b.chunks[b.n] = seg.buf[max(off, seg.off)-seg.off : min(s.head, seg.end())-seg.off]
		b.n++
	}
}
