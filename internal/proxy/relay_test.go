package proxy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/leaktest"
	"streamcache/internal/units"
)

// ringBytes is the relay ring's capacity.
const ringBytes = relayRingSegments * segmentSize

// buffered returns the byte span the ring holds for readers.
func (r *relay) buffered() (n int64) {
	r.state.Read(func(s *relayState) { n = s.head - s.tail })
	return n
}

// tailOffset returns the oldest object offset still readable.
func (r *relay) tailOffset() (off int64) {
	r.state.Read(func(s *relayState) { off = s.tail })
	return off
}

// snapshot copies the relay's guarded state.
func (r *relay) snapshot() (s relayState) {
	r.state.Read(func(st *relayState) { s = *st })
	return s
}

// inflightRelay returns the shard's in-flight relay for object id, or nil.
func (sh *shard) inflightRelay(id int) (rl *relay) {
	sh.state.Read(func(st *shardState) { rl = st.inflight[id] })
	return rl
}

// pieces is an upstream body for pump: it hands out data in reads of at
// most piece bytes, the way a network body arrives.
type pieces struct {
	data  []byte
	piece int
}

func (p *pieces) Read(b []byte) (int, error) {
	if len(p.data) == 0 {
		return 0, io.EOF
	}
	n := copy(b[:min(len(b), p.piece)], p.data)
	p.data = p.data[n:]
	return n, nil
}

// drain plays one client: it reads rl from off on through next until the
// transfer ends, checking every aliased chunk against want (the bytes
// of the relay from rl.start on) at the moment it would be written out,
// and calling step, if set, between chunks. It returns the offset it
// reached and what ended it, holding nothing. The caller detaches.
func drain(rl *relay, off int64, want []byte, step func(off int64)) (int64, error) {
	var b relayBatch
	defer b.unpin()
	for {
		if err := rl.next(context.Background(), off, &b); b.n == 0 {
			return off, err
		}
		for _, chunk := range b.chunks[:b.n] {
			if step != nil {
				step(off)
			}
			if !bytes.Equal(chunk, want[off-rl.start:off-rl.start+int64(len(chunk))]) {
				return off, fmt.Errorf("reader at %d: %d aliased bytes differ from the object's", off, len(chunk))
			}
			off += int64(len(chunk))
		}
	}
}

// liveSegments returns how many segments are out of the pool: what
// newSegment handed out less what came back. It counts full-size
// segments only when every segment made meanwhile is one.
func liveSegments() int64 {
	return segmentsAllocated.Load() + segmentsRecycled.Load() - recycled.Load()
}

// TestRelayRingBoundsMemory pins the memory bound and the pacing rule:
// however large the transfer, the relay's ring never holds more than
// its capacity nor runs more than half a ring (and the segment being
// filled) ahead of its lead reader, and the segments the relay keeps
// out of the pool never exceed the ring plus half a ring per attached
// reader, a batch being capped at half a ring whatever is published; a
// reader that stalls on a batch is told it was lapped, and the segments
// it had pinned — long gone from the ring — go back to the pool the
// moment it lets go; a reader inside the window gets exact bytes.
func TestRelayRingBoundsMemory(t *testing.T) {
	const total = 4 << 20 // 4x the ring capacity, every segment full-size
	const readers = 2
	data := Content(1, 0, total)
	live0 := liveSegments()
	rl := newRelay(0, total, 0, nil)
	rl.attach() // the lead
	rl.attach() // one that takes a batch and stalls on it
	fed := make(chan int64)
	go func() {
		n, _, err := pump(&pieces{data, 32 * 1024}, nil, 1, rl)
		rl.finish(err)
		fed <- n
	}()

	// The stalled reader asks when nine segments are published — half a
	// ring with nobody reading, one more once the lead has consumed a
	// segment — and is handed a batch's worth, not all of them.
	published := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); rl.buffered() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("fetch stopped %d bytes in, short of %d", rl.buffered(), n)
			}
		}
	}
	published(ringBytes / 2)
	var stalled relayBatch
	if err := rl.next(context.Background(), segmentSize, &stalled); stalled.n == 0 {
		t.Fatalf("no batch at offset %d: %v", segmentSize, err)
	}
	published(ringBytes/2 + segmentSize)
	if err := rl.next(context.Background(), 0, &stalled); stalled.n != relayRingSegments/2 {
		t.Fatalf("stalled reader was handed %d segments (%v) of %d published, want %d", stalled.n, err, relayRingSegments/2+1, relayRingSegments/2)
	}
	end, err := drain(rl, 0, data, func(off int64) {
		if got := rl.buffered(); got > ringBytes {
			t.Errorf("relay holds %d bytes with its lead at %d, bound is %d", got, off, ringBytes)
		}
		s := rl.snapshot()
		if ahead := s.head - s.lead; ahead > ringBytes/2+segmentSize {
			t.Errorf("fetch ran %d bytes ahead of its lead at %d, bound is %d", ahead, off, ringBytes/2+segmentSize)
		}
		if got := (liveSegments() - live0) * segmentSize; got > ringBytes+readers*ringBytes/2 {
			t.Errorf("relay keeps %d bytes out of the pool with its lead at %d, bound is %d", got, off, ringBytes+readers*ringBytes/2)
		}
	})
	if end != total || err != nil {
		t.Fatalf("lead reader stopped at %d (%v), want %d", end, err, total)
	}
	if got := <-fed; got != total {
		t.Fatalf("fetch stopped at %d, want %d", got, total)
	}

	// The stalled reader's batch fell off the ring while it was pinned:
	// its references are the last, so unpinning is what recycles it.
	tail := rl.tailOffset()
	if tail == 0 || total-tail > ringBytes {
		t.Fatalf("tail = %d after %d bytes through a %d-byte ring", tail, total, ringBytes)
	}
	for i, seg := range stalled.segs[:stalled.n] {
		if seg.end() > tail {
			t.Fatalf("the stalled reader's segment at %d is still in the ring (tail %d)", seg.off, tail)
		}
		if !bytes.Equal(stalled.chunks[i], data[seg.off:seg.off+int64(len(stalled.chunks[i]))]) {
			t.Fatalf("the stalled reader's pinned bytes at %d changed after the ring dropped them", seg.off)
		}
	}
	pinned, before := int64(stalled.n), recycled.Load()
	if err := rl.next(context.Background(), 0, &stalled); stalled.n != 0 || err != errRelayLapped {
		t.Fatalf("stalled reader got (%d chunks, %v), want (0, errRelayLapped)", stalled.n, err)
	}
	if got := recycled.Load() - before; got != pinned {
		t.Fatalf("%d segments went back to the pool when the lapped reader let go of %d", got, pinned)
	}
	// A reader inside the window reads the exact published bytes.
	if end, err := drain(rl, tail, data, nil); end != total || err != nil {
		t.Fatalf("in-window reader stopped at %d (%v), want %d", end, err, total)
	}
	rl.detach(&stalled)
	rl.detach(nil)
	if s := rl.snapshot(); s.n != 0 || !s.released {
		t.Fatalf("ring not recycled after the last detach: n=%d released=%v", s.n, s.released)
	}
	if got := liveSegments() - live0; got != 0 {
		t.Fatalf("%d segments still out of the pool after the relay let go of its ring", got)
	}
}

// TestRelayLockstepDeliversExactBytes runs the fetch against a
// concurrent reader and demands the reader observe the byte stream
// exactly — segment reuse, a nonzero start and pieces unaligned with
// segmentSize included (the transfer spans the ring many times over).
// The reader is the relay's only one, so pacing must keep it from ever
// being lapped.
func TestRelayLockstepDeliversExactBytes(t *testing.T) {
	const start = 100 // nonzero start exercises the offset mapping
	const total = 3 << 20
	want := Content(2, start, total)
	rl := newRelay(start, start+total, 0, nil)
	rl.attach()
	go func() {
		_, _, err := pump(&pieces{want, 7000}, nil, 2, rl)
		rl.finish(err)
	}()
	if end, err := drain(rl, start, want, nil); end != start+total || err != nil {
		t.Fatalf("reader stopped at %d (%v), want %d", end, err, start+total)
	}
	rl.detach(nil)
}

// prefixMatcher is an io.Writer that compares what is written to it
// with the start of want, without keeping it.
type prefixMatcher struct {
	want []byte
	n    int
	ok   bool
}

func (m *prefixMatcher) Write(p []byte) (int, error) {
	m.ok = m.ok && m.n+len(p) <= len(m.want) && bytes.Equal(p, m.want[m.n:m.n+len(p)])
	m.n += len(p)
	return len(p), nil
}

// storesPrefix reports whether what store holds of object id is a
// prefix of object.
func storesPrefix(store *PrefixStore, id int, object []byte) bool {
	m := &prefixMatcher{want: object, ok: true}
	v := store.View(id, int64(len(object)))
	defer v.release()
	_, err := v.WriteTo(m)
	return err == nil && m.ok && int64(m.n) == v.Len()
}

// relayScriptObject is the content relayScript's transfers carry.
var relayScriptObject = Content(5, 0, segmentSize+7+2*ringBytes+12345)

// relayScript drives one relay, its store and up to four readers through
// the operations script encodes, single-threaded, against an unbounded
// reference buffer (the object's content): the model-based test of the
// relay. A reader's step is handed every published byte from its offset
// on (up to a batch) and writes out one chunk of it or all of it. Every
// reader must receive byte-exact data — checked when it writes a chunk
// out, however many publishes, drops and truncations happened since
// next handed it over — or errRelayLapped, and then only while trailing
// the lead by several segments; the ring never holds more than its
// capacity; the fetch is paced exactly by the half-ring rule; the store
// holds an exact prefix; and at the end the ring is recycled and no
// segment is left with a reference.
func relayScript(t testing.TB, script []byte) {
	arg := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	const id = 5
	start := []int64{0, 100, segmentSize + 7}[arg()%3]
	end := start + 2*ringBytes + 12345
	retain := []int64{0, start + 100_000, end}[arg()%3]
	object := relayScriptObject[:end]
	want := object[start:]

	store := NewPrefixStore()
	store.AppendAt(id, 0, object[:start], start) // the prefix the relay resumes behind
	canceled := false
	rl := newRelay(start, end, retain, func() { canceled = true })

	type reader struct {
		attached bool
		off      int64
		b        relayBatch // what next handed over
		at       int        // the first chunk of b not written out yet
	}
	var readers [4]reader
	var segs []*segment // every segment the fetch was handed
	var cur *segment
	head, lead := start, start
	done := false
	consumed := func(off int64) { lead = max(lead, off) }
	attached := func() (n int) {
		for _, r := range readers {
			if r.attached {
				n++
			}
		}
		return n
	}
	boom := errors.New("upstream died")
	canceledCtx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	var finishErr error

	for len(script) > 0 {
		if done && attached() == 0 {
			break // this transfer is over; the rest of the script drives another
		}
		op, a := arg()%16, arg()
		r := &readers[a%len(readers)]
		switch {
		case op < 7: // the fetch reads one piece
			if done {
				break
			}
			if cur == nil || head == cur.end() {
				if head == end {
					rl.finish(nil)
					done = true
					break
				}
				s := rl.snapshot()
				if paced := head-lead >= ringBytes/2; paced != !s.room() {
					t.Fatalf("head %d, lead %d: model says paced=%v, relay room=%v", head, lead, paced, s.room())
				} else if paced && !canceled {
					break // the fetch would wait here
				}
			}
			seg, limit, _ := rl.reserve()
			if canceled {
				if seg != nil && head == seg.end() {
					t.Fatal("reserve opened a segment for a canceled fetch")
				}
				rl.finish(context.Canceled)
				done, finishErr = true, context.Canceled
				break
			}
			if seg == nil {
				t.Fatalf("reserve refused at head %d of %d with room", head, end)
			}
			if seg != cur {
				cur = seg
				segs = append(segs, seg)
			}
			n := copy(seg.buf[head-seg.off:], want[head-start:min(end, head+int64(a+1)*131)-start])
			if head < limit {
				store.adopt(id, seg, head+int64(n), limit)
			}
			rl.publish(n)
			head += int64(n)
		case op < 13: // a reader takes a step
			if !r.attached {
				if done || canceled {
					break
				}
				if !rl.attach() {
					t.Fatal("a live relay refused attach")
				}
				// Behind the ring or inside it; one in eight anywhere in
				// the object, which may be past what is fetched so far
				// (a ranged resume).
				span := head - start
				if a%8 == 0 {
					span = end - start
				}
				*r = reader{attached: true, off: start + int64(a)*span/256}
				break
			}
			// Write out what next handed over: everything on an odd op,
			// one chunk — a client that took a short write — on an even.
			n := r.b.n - r.at
			if op%2 == 0 {
				n = min(n, 1)
			}
			for ; n > 0; n-- {
				chunk := r.b.chunks[r.at]
				r.at++
				if !bytes.Equal(chunk, want[r.off-start:r.off-start+int64(len(chunk))]) {
					t.Fatalf("reader at %d: %d aliased bytes differ from the object's", r.off, len(chunk))
				}
				r.off += int64(len(chunk))
			}
			consumed(r.off)
			if r.off >= head && !done {
				// next would block. A canceled context lets the reader
				// enter it — unpin, report its offset — and no further.
				if err := rl.next(canceledCtx, r.off, &r.b); r.b.n != 0 || err != context.Canceled {
					t.Fatalf("next at the head with a canceled context returned (%d chunks, %v)", r.b.n, err)
				}
				r.at = 0
				break
			}
			err := rl.next(context.Background(), r.off, &r.b)
			r.at = 0
			switch {
			case r.b.n > 0:
				// Everything published from the reader's offset on, short
				// of head only when the batch is full.
				got := r.off
				for i, chunk := range r.b.chunks[:r.b.n] {
					if len(chunk) == 0 || r.b.segs[i].end() < got+int64(len(chunk)) {
						t.Fatalf("reader at %d handed a chunk of %d bytes at %d of the segment at %d", r.off, len(chunk), got, r.b.segs[i].off)
					}
					got += int64(len(chunk))
				}
				if got > head || (got < head && r.b.n < len(r.b.segs)) {
					t.Fatalf("reader at %d handed %d chunks up to %d with head at %d", r.off, r.b.n, got, head)
				}
				continue
			case err == errRelayLapped:
				if tail := rl.tailOffset(); r.off >= tail || lead-r.off <= (relayRingSegments/2-3)*segmentSize {
					t.Fatalf("reader at %d lapped with tail %d and lead %d", r.off, tail, lead)
				}
			case r.off < head || err != finishErr:
				t.Fatalf("reader ended at %d with %v; head %d, transfer ended with %v", r.off, err, head, finishErr)
			}
			rl.detach(nil)
			r.attached = false
		case op == 13: // a client goes away, mid-write or not
			if r.attached {
				abort := attached() == 1 && !done && !canceled
				if aborted := rl.detach(&r.b); aborted != abort || (abort && !canceled) {
					t.Fatalf("detach reported aborted=%v, canceled the fetch %v, want %v", aborted, canceled, abort)
				}
				*r = reader{}
			}
		case op == 14: // the cache evicts, or a late attacher raises the target
			if a%2 == 0 {
				store.Truncate(id, int64(a)*int64(end)/255)
			} else {
				rl.raiseRetain(end)
			}
		default: // the upstream dies
			if !done && a == 0 {
				rl.finish(boom)
				done, finishErr = true, boom
			}
		}

		s := rl.snapshot()
		if s.n > relayRingSegments || s.head-s.tail > ringBytes {
			t.Fatalf("ring holds %d segments, %d bytes; bounds are %d, %d", s.n, s.head-s.tail, relayRingSegments, ringBytes)
		}
		if s.head != head || s.lead != lead {
			t.Fatalf("relay at head %d lead %d, model at head %d lead %d", s.head, s.lead, head, lead)
		}
		if head-lead > ringBytes/2+segmentSize {
			t.Fatalf("fetch at %d ran %d past its lead", head, head-lead)
		}
		if op == 14 && !storesPrefix(store, id, object) {
			t.Fatalf("store holds %d bytes that are not the object's prefix", store.Len(id))
		}
	}

	for i := range readers {
		if readers[i].attached {
			rl.detach(&readers[i].b)
		}
	}
	if !done {
		rl.finish(nil)
	}
	if s := rl.snapshot(); s.n != 0 || !s.released {
		t.Fatalf("ring not recycled at the end: n=%d released=%v", s.n, s.released)
	}
	if !storesPrefix(store, id, object) {
		t.Fatalf("store holds %d bytes that are not the object's prefix", store.Len(id))
	}
	// With the store emptied too nothing is left to hold a segment of
	// this transfer (one the pool handed out twice is listed twice).
	store.Truncate(id, 0)
	for _, seg := range segs {
		if n := seg.refs.Load(); n != 0 {
			t.Fatalf("segment at %d left with %d references", seg.off, n)
		}
	}
	if len(script) > 0 {
		relayScript(t, script)
	}
}

// TestRelayMatchesUnboundedModel runs the model script on long random
// inputs; FuzzRelayModel (make fuzz-smoke) lets the fuzzer write them.
func TestRelayMatchesUnboundedModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		script := make([]byte, 40_000)
		rand.New(rand.NewSource(seed)).Read(script)
		relayScript(t, script)
	}
}

func FuzzRelayModel(f *testing.F) {
	f.Add([]byte{0, 2, 0, 9, 7, 0, 0, 200, 8, 0, 13, 0})
	f.Add(bytes.Repeat([]byte{1, 1, 3, 255, 9, 2}, 400))
	f.Fuzz(func(t *testing.T, script []byte) { relayScript(t, script) })
}

// TestAliasedReadersStableUnderFillAndEviction is the aliasing contract
// under the race detector: readers compare aliased segment bytes while
// the fetch fills the same segments' tails (the pieces are far smaller
// than a segment), the store adopts them, and an evictor truncates and
// re-reads the object mid-flight. Readers and views stay byte-stable.
func TestAliasedReadersStableUnderFillAndEviction(t *testing.T) {
	const id, total = 9, 3 << 20
	data := Content(id, 0, total)
	store := NewPrefixStore()
	rl := newRelay(0, total, total, nil)
	const nReaders = 3
	var wg sync.WaitGroup
	for i := 0; i < nReaders; i++ {
		rl.attach()
		wg.Add(1)
		go func() {
			defer wg.Done()
			end, err := drain(rl, 0, data, nil)
			rl.detach(nil)
			if err != errRelayLapped && (err != nil || end != total) {
				t.Errorf("reader stopped at %d: %v", end, err)
			}
		}()
	}
	stop := make(chan struct{})
	evictorDone := make(chan struct{})
	go func() {
		defer close(evictorDone)
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := store.View(id, total)
			store.Truncate(id, rng.Int63n(total))
			var got bytes.Buffer
			if _, err := v.WriteTo(&got); err != nil || !bytes.Equal(got.Bytes(), data[:v.Len()]) {
				t.Errorf("view of %d bytes changed under truncation and refill (%v)", v.Len(), err)
				return
			}
		}
	}()
	n, _, err := pump(&pieces{data, 1500}, store, id, rl)
	if n != total || err != nil {
		t.Errorf("fetch stopped at %d (%v), want %d", n, err, total)
	}
	rl.finish(err)
	wg.Wait()
	close(stop)
	<-evictorDone
	if got := store.Prefix(id); !bytes.Equal(got, data[:len(got)]) {
		t.Fatalf("store holds %d bytes that are not the object's prefix", len(got))
	}
}

// TestRecycledSegmentNeverAliased pins reuse under the aliasing
// contract: a view and a reader's batch held across the eviction of
// the whole object, the end of its relay and a refill out of the pool
// still read their original bytes, because each holds a reference and
// only the last one out recycles (TestMain poisons what is recycled, so
// a segment pooled too early fails the comparison here, not a digest
// somewhere else); and a reference released twice panics by name
// instead of pooling the segment twice.
func TestRecycledSegmentNeverAliased(t *testing.T) {
	const id, size = 11, 4 * segmentSize
	want := Content(id, 0, size)
	store := NewPrefixStore()
	rl := newRelay(0, size, size, nil)
	rl.attach()
	n, _, err := pump(&pieces{want, 8000}, store, id, rl)
	if n != size || err != nil {
		t.Fatalf("fetch stopped at %d (%v), want %d", n, err, size)
	}
	rl.finish(err)
	var held relayBatch
	if err := rl.next(context.Background(), 0, &held); held.n != size/segmentSize {
		t.Fatalf("reader was handed %d segments (%v), want %d", held.n, err, size/segmentSize)
	}
	v := store.View(id, size)
	intact := func(when string) {
		t.Helper()
		var got bytes.Buffer
		if _, err := v.WriteTo(&got); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: the view no longer reads the object's bytes (%v)", when, err)
		}
	}

	// The object is evicted whole and the relay ends, its reader leaving
	// the books with its batch still in hand: ring and chain let go, and
	// a refill draws on the pool.
	before := recycled.Load()
	store.Truncate(id, 0)
	rl.detach(nil)
	refill := func(id int) { store.AppendAt(id, 0, Content(id, 0, size), size) }
	refill(id + 1)
	if got := recycled.Load() - before; got != 0 {
		t.Fatalf("%d segments recycled while a view and a reader hold them", got)
	}
	intact("after eviction and refill")
	for i, chunk := range held.chunks[:held.n] {
		if !bytes.Equal(chunk, want[i*segmentSize:(i+1)*segmentSize]) {
			t.Fatalf("the reader's pinned chunk %d changed after eviction and refill", i)
		}
	}
	held.unpin()
	refill(id + 2)
	intact("after the reader let go")
	if got := recycled.Load() - before; got != 0 {
		t.Fatalf("%d segments recycled while a view holds them", got)
	}
	v.release()
	if got := recycled.Load() - before; got != size/segmentSize {
		t.Fatalf("%d segments recycled once nothing holds them, want %d", got, size/segmentSize)
	}

	seg := newSegment(0, segmentSize)
	seg.unref()
	before = recycled.Load()
	defer func() {
		if msg, _ := recover().(string); msg != "proxy: segment reference released twice" {
			t.Fatalf("second release: recovered %q, want the double-release panic", msg)
		}
		if got := recycled.Load() - before; got != 0 {
			t.Fatalf("the second release pooled the segment %d more times", got)
		}
	}()
	seg.unref()
}

// stallFirstOrigin wraps an Origin, counts requests so tests can assert
// how many origin transfers a scenario cost, and stalls the FIRST
// response after stallAfter bytes until gate is closed. Holding the
// first transfer inside the ring window until the client is provably
// parked is what makes the lap test deterministic: without it, kernel
// socket buffers let the origin burst ahead and on GOMAXPROCS=1 the
// fetch goroutine can lap a client that has not yet been scheduled.
type stallFirstOrigin struct {
	inner      http.Handler
	requests   atomic.Int64
	stallAfter int64
	gate       chan struct{}
}

func (o *stallFirstOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if o.requests.Add(1) == 1 {
		w = &gatedResponseWriter{inner: w, stallAfter: o.stallAfter, gate: o.gate}
	}
	o.inner.ServeHTTP(w, r)
}

// gatedResponseWriter passes writes through until stallAfter bytes,
// then blocks each write until gate is closed.
type gatedResponseWriter struct {
	inner      http.ResponseWriter
	n          int64
	stallAfter int64
	gate       chan struct{}
}

func (w *gatedResponseWriter) Header() http.Header { return w.inner.Header() }
func (w *gatedResponseWriter) WriteHeader(c int)   { w.inner.WriteHeader(c) }
func (w *gatedResponseWriter) Write(p []byte) (int, error) {
	if w.n >= w.stallAfter {
		<-w.gate
	}
	w.n += int64(len(p))
	return w.inner.Write(p)
}

// gatedDigestWriter is an http.ResponseWriter that digests everything
// written to it but blocks after stallAfter bytes until gate is closed,
// closing parked (if set) just before the first block so the test knows
// the client is committed. Driving ServeHTTP with it makes a lap
// deterministic: no kernel socket buffer absorbs bytes behind the
// test's back.
type gatedDigestWriter struct {
	h          http.Header
	sum        hash.Hash
	n          int64
	stallAfter int64
	gate       chan struct{}
	parked     chan struct{}
}

func (w *gatedDigestWriter) Header() http.Header { return w.h }
func (w *gatedDigestWriter) WriteHeader(int)     {}
func (w *gatedDigestWriter) Write(p []byte) (int, error) {
	if w.n >= w.stallAfter {
		if w.parked != nil {
			close(w.parked)
			w.parked = nil
		}
		<-w.gate
	}
	w.sum.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

// parkedClient starts a request for object 1 whose client stalls on its
// first body write, waits until it has, and returns the writer, a
// function that lets the client go on and a channel closed when its
// request has been served.
func parkedClient(t *testing.T, px *Proxy) (*gatedDigestWriter, func(), <-chan struct{}) {
	t.Helper()
	parked := make(chan struct{})
	w := &gatedDigestWriter{h: make(http.Header), sum: sha256.New(), gate: make(chan struct{}), parked: parked}
	// Released at the end of the test whatever happens, so a failing
	// assertion can never strand the serve goroutine behind the gate.
	release := sync.OnceFunc(func() { close(w.gate) })
	t.Cleanup(release)
	done := make(chan struct{})
	go func() {
		defer close(done)
		px.ServeHTTP(w, httptest.NewRequest("GET", "/objects/1", nil))
	}()
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("client never parked on its first write")
	}
	return w, release, done
}

// stalledStack is a proxy over one 4 MB object (4x the ring capacity)
// behind a counting origin that holds its first response after
// stallAfter bytes until the returned release is called (0: never
// holds).
func stalledStack(t *testing.T, cacheBytes, stallAfter int64, policy func() core.Policy) (*Proxy, *stallFirstOrigin, func()) {
	t.Helper()
	watch := leaktest.Start(t)
	catalog, err := NewCatalog([]Meta{{ID: 1, Size: 4 * units.MB, Rate: units.KBps(512), Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	origin, err := NewOrigin(catalog, 0)
	if err != nil {
		t.Fatal(err)
	}
	counting := &stallFirstOrigin{inner: origin, stallAfter: stallAfter, gate: make(chan struct{})}
	release := sync.OnceFunc(func() { close(counting.gate) })
	if stallAfter == 0 {
		release()
	}
	originSrv := httptest.NewServer(counting)
	t.Cleanup(originSrv.Close)
	t.Cleanup(release)
	px, err := New(Config{Catalog: catalog, OriginURL: originSrv.URL, CacheBytes: cacheBytes, NewPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	watch(px)
	return px, counting, release
}

// TestSlowReaderDemotedStillCorrect is the end-to-end bound: of two
// clients on one transfer, the one that stalls while the other streams
// on falls out of the ring, is demoted to a private upstream fetch from
// where it stopped, and still receives the complete, byte-correct
// object. The demotion costs exactly one extra origin request; the ring
// bound itself is pinned by TestRelayRingBoundsMemory.
func TestSlowReaderDemotedStillCorrect(t *testing.T) {
	const size = 4 * units.MB
	// A tiny cache keeps the stored prefix negligible: essentially the
	// whole object flows through the relay. The shared fetch is held
	// after 256 KB — well inside the ring — until both clients are
	// attached, so the fast one cannot find offset 0 gone.
	px, origin, releaseOrigin := stalledStack(t, 64*units.KB, 256*units.KB, core.NewIB)
	slow, releaseSlow, slowDone := parkedClient(t, px)

	fast := &gatedDigestWriter{h: make(http.Header), sum: sha256.New(), stallAfter: math.MaxInt64}
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		px.ServeHTTP(fast, httptest.NewRequest("GET", "/objects/1", nil))
	}()
	waitForCoalesced(t, px, 1)
	releaseOrigin()

	// The fast client paces the fetch to the end of the object, which
	// leaves the parked one 4 MB — four rings — behind.
	select {
	case <-fastDone:
	case <-time.After(30 * time.Second):
		t.Fatal("fast client did not finish beside a stalled one")
	}
	releaseSlow()
	select {
	case <-slowDone:
	case <-time.After(30 * time.Second):
		t.Fatal("request did not finish after demotion")
	}

	for name, w := range map[string]*gatedDigestWriter{"fast": fast, "stalled": slow} {
		if w.n != size {
			t.Fatalf("%s client received %d bytes, want %d", name, w.n, size)
		}
		if got, want := hex.EncodeToString(w.sum.Sum(nil)), ContentSHA256(1, size); got != want {
			t.Fatalf("%s client: content digest mismatch:\n got %s\nwant %s", name, got, want)
		}
	}
	px.Quiesce()
	// The shared fetch plus the demoted reader's private refetch. (If the
	// reader was never lapped this would be 1 and the test proved
	// nothing, so pin exactly 2.)
	if got := origin.requests.Load(); got != 2 {
		t.Fatalf("origin saw %d requests, want 2 (shared fetch + demotion refetch)", got)
	}
	if st := px.Snapshot(); st.RelayDemotions != 1 || st.CoalescedRequests != 1 {
		t.Fatalf("stats count %d demotions, %d coalesced requests; want 1, 1", st.RelayDemotions, st.CoalescedRequests)
	}
}

// TestSoleStalledReaderPacesOneTransfer is the mirror: a stalled client
// that is its transfer's only reader is never outrun. The fetch stops
// reading the unthrottled origin half a ring ahead of it, goes on when
// it does, and one upstream request delivers the whole object to the
// client and the whole retention target to the store.
func TestSoleStalledReaderPacesOneTransfer(t *testing.T) {
	const size = 4 * units.MB
	px, origin, _ := stalledStack(t, units.GBytes(1), 0, core.NewLRU)
	w, release, done := parkedClient(t, px)

	// Wait for the fetch to block on its reader, then look at how far
	// it got.
	rl := px.shardFor(1).inflightRelay(1)
	if rl == nil {
		t.Fatal("no relay in flight for the parked client")
	}
	deadline := time.Now().Add(30 * time.Second)
	for rl.buffered() < ringBytes/2 {
		if time.Now().After(deadline) {
			t.Fatalf("fetch stopped %d bytes in, short of the pacing limit", rl.buffered())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let an unpaced fetch run away
	if got := rl.buffered(); got > ringBytes/2+segmentSize {
		t.Fatalf("fetch ran %d bytes ahead of its stalled sole reader, bound is %d", got, ringBytes/2+segmentSize)
	}

	release()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("request did not finish after the client went on")
	}
	if got, want := hex.EncodeToString(w.sum.Sum(nil)), ContentSHA256(1, size); w.n != size || got != want {
		t.Fatalf("client received %d bytes with digest %s, want %d and %s", w.n, got, size, want)
	}
	px.Quiesce()
	if got := origin.requests.Load(); got != 1 {
		t.Fatalf("origin saw %d requests, want 1", got)
	}
	if st := px.Snapshot(); st.RelayDemotions != 0 || st.RelayPacedWaits == 0 || st.RelayCancelled != 0 {
		t.Fatalf("stats count %d demotions, %d paced waits, %d cancelled fetches; want 0, >0, 0",
			st.RelayDemotions, st.RelayPacedWaits, st.RelayCancelled)
	}
	if stored, acct := px.StoredBytes(1), px.AccountedBytes(1); stored != size || acct != size {
		t.Fatalf("stored %d, accounted %d bytes; the policy's target is the whole object, %d", stored, acct, size)
	}
}

// slowWriter is an http.ResponseWriter for a client that takes bytes at
// bps and no faster.
type slowWriter struct {
	h   http.Header
	n   int64
	bps float64
}

func (w *slowWriter) Header() http.Header { return w.h }
func (w *slowWriter) WriteHeader(int)     {}
func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(time.Duration(float64(len(p)) / w.bps * float64(time.Second)))
	w.n += int64(len(p))
	return len(p), nil
}

// TestSlowClientKeepsPathEstimate pins what the passive bandwidth
// estimate means under pacing: the upstream path's rate, whatever the
// clients'. A client slower than the path parks the fetch, the kernel's
// buffers fill behind it and the reads that follow return at memory
// speed — the transfer must not be taken for a sample of the path.
func TestSlowClientKeepsPathEstimate(t *testing.T) {
	const size, pathBps = 2 * units.MB, 4e6
	watch := leaktest.Start(t)
	catalog, err := NewCatalog([]Meta{
		{ID: 1, Size: size, Rate: units.KBps(512), Value: 1},
		{ID: 2, Size: size, Rate: units.KBps(512), Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	origin, err := NewOrigin(catalog, pathBps)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)
	px, err := New(Config{Catalog: catalog, OriginURL: originSrv.URL, CacheBytes: units.GBytes(1), NewPolicy: core.NewLRU})
	if err != nil {
		t.Fatal(err)
	}
	watch(px)
	nearPath := func(when string) {
		t.Helper()
		px.Quiesce()
		if est := px.Snapshot().EstimateBps(originSrv.URL); est < pathBps/2 || est > 2*pathBps {
			t.Fatalf("%s: path estimated at %d B/s, origin serves %d B/s", when, est, int64(pathBps))
		}
	}

	fast := &slowWriter{h: make(http.Header), bps: math.Inf(1)}
	px.ServeHTTP(fast, httptest.NewRequest("GET", "/objects/1", nil))
	nearPath("after a fast client")

	slow := &slowWriter{h: make(http.Header), bps: pathBps / 2}
	px.ServeHTTP(slow, httptest.NewRequest("GET", "/objects/2", nil))
	nearPath("after a client at half the path's rate")
	if fast.n != size || slow.n != size {
		t.Fatalf("clients received %d and %d bytes, want %d each", fast.n, slow.n, size)
	}
	if st := px.Snapshot(); st.RelayPacedWaits == 0 {
		t.Fatal("the slow client never paced its fetch: the test proved nothing")
	}
}
