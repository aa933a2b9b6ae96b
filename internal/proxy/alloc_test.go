package proxy

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	"streamcache/internal/core"
	"streamcache/internal/leaktest"
	"streamcache/internal/units"
)

// nullResponseWriter is the cheapest possible http.ResponseWriter: it
// discards the body and reuses one header map, so AllocsPerRun measures
// the proxy's own serve path, not the recorder's.
type nullResponseWriter struct {
	h http.Header
	n int64
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}
func (w *nullResponseWriter) Flush()                      {}

// TestServePrefixHitAllocFree pins the tentpole: after warmup, serving
// a full prefix hit performs zero heap allocations — the prefix flows
// from aliased segments, the headers are prerendered slices, and the
// cache bookkeeping runs on core's zero-alloc tables.
func TestServePrefixHitAllocFree(t *testing.T) {
	watch := leaktest.Start(t)
	const nObjects = 4
	const size = 3*segmentSize + 1000 // multi-segment with a partial tail
	metas := make([]Meta, nObjects)
	for i := range metas {
		metas[i] = Meta{ID: i, Size: size, Rate: units.KBps(512), Value: 1}
	}
	catalog, err := NewCatalog(metas)
	if err != nil {
		t.Fatal(err)
	}
	origin, err := NewOrigin(catalog, 0)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	px, err := New(Config{
		Catalog:    catalog,
		OriginURL:  originSrv.URL,
		CacheBytes: units.GBytes(1),
		NewPolicy:  core.NewIB,
	})
	if err != nil {
		t.Fatal(err)
	}
	watch(px)

	reqs := make([]*http.Request, nObjects)
	reqs[0] = httptest.NewRequest("GET", "/objects/0", nil)
	reqs[1] = httptest.NewRequest("GET", "/objects/1", nil)
	reqs[2] = httptest.NewRequest("GET", "/objects/2", nil)
	reqs[3] = httptest.NewRequest("GET", "/objects/3", nil)

	// Warm every object to a full prefix, then once more so policy state
	// is past any first-touch transients.
	w := &nullResponseWriter{h: make(http.Header)}
	for range 2 {
		for i, req := range reqs {
			w.n = 0
			px.ServeHTTP(w, req)
			if w.n != size {
				t.Fatalf("warmup object %d: wrote %d bytes, want %d", i, w.n, size)
			}
		}
		px.Quiesce()
	}
	if px.StoredBytes(0) != size {
		t.Fatalf("object 0 not fully cached after warmup: %d/%d", px.StoredBytes(0), size)
	}

	var i int
	allocs := testing.AllocsPerRun(200, func() {
		req := reqs[i%nObjects]
		i++
		w.n = 0
		px.ServeHTTP(w, req)
		if w.n != size {
			t.Fatalf("short response: %d bytes", w.n)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed prefix-hit serve path allocates %.1f times per request, want 0", allocs)
	}
}

// TestRelayReaderLoopAllocFree pins the relay side: a reader draining
// an already-published ring through next — unpin the last batch, pin
// and alias the next, all of it in the reader's own fixed arrays —
// performs zero allocations per step, whether the step takes a batch's
// worth of segments or (resuming inside the last one) a single chunk.
func TestRelayReaderLoopAllocFree(t *testing.T) {
	const total = ringBytes / 2 // what the fetch may publish with nothing consumed
	data := Content(3, 0, total)
	rl := newRelay(0, total, 0, nil)
	if !rl.attach() {
		t.Fatal("attach refused")
	}
	n, _, err := pump(bytes.NewReader(data), nil, 3, rl)
	if n != total || err != nil {
		t.Fatalf("fetch stopped at %d (%v), want %d", n, err, total)
	}
	rl.finish(err)

	ctx := context.Background()
	var off int64
	var b relayBatch
	allocs := testing.AllocsPerRun(200, func() {
		if off >= total {
			off = 0 // rewind; everything is still inside the window
		}
		if err := rl.next(ctx, off, &b); err != nil || b.n == 0 {
			t.Fatalf("next at %d: %d chunks, err=%v", off, b.n, err)
		}
		// Consume all but the last chunk's second half, so the steps
		// alternate between a full batch and the rest of one segment.
		for _, chunk := range b.chunks[:b.n-1] {
			off += int64(len(chunk))
		}
		off += int64(len(b.chunks[b.n-1])+1) / 2
	})
	rl.detach(&b)
	if allocs != 0 {
		t.Errorf("relay reader loop allocates %.1f times per read, want 0", allocs)
	}
}

// raceBuild reports whether the race detector is compiled in. Its
// sync.Pool drops a quarter of what is put back — segPool's segments
// (ring, store and view alike now), fmt's and net/http's scratch — so
// the miss path's allocation counts are exact only without it.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// drainingBody is an upstream body for pump and the relay's only reader
// in one: every Read first consumes, through next, what pump published
// of the previous ones, so the fetch never waits for its reader and
// ring segments recycle; then it hands out the next piece.
type drainingBody struct {
	t     *testing.T
	rl    *relay
	left  int64 // bytes still to hand out
	off   int64 // the reader's offset; everything below is consumed
	held  relayBatch
	reads int
}

func (b *drainingBody) Read(p []byte) (int, error) {
	for handed := b.rl.end - b.left; b.off < handed; {
		if err := b.rl.next(context.Background(), b.off, &b.held); b.held.n == 0 {
			b.t.Fatalf("next at %d of %d published: %v", b.off, handed, err)
		}
		for _, chunk := range b.held.chunks[:b.held.n] {
			b.off += int64(len(chunk))
		}
	}
	if b.left == 0 {
		return 0, io.EOF
	}
	b.reads++
	n := min(len(p), 4096, int(b.left))
	b.left -= int64(n)
	return n, nil
}

// TestPumpSteadyStateAllocFree pins the fetch side of a miss: once the
// ring's segments recycle through segPool, pump moves a body into a
// relay whose reader keeps up with zero allocations per Read.
func TestPumpSteadyStateAllocFree(t *testing.T) {
	const total = 4 * ringBytes // every ring slot is dropped and reused three times over
	var reads int
	allocs := testing.AllocsPerRun(1, func() { // the warm-up run fills segPool
		rl := newRelay(0, total, 0, nil)
		rl.attach()
		body := &drainingBody{t: t, rl: rl, left: total}
		n, waits, err := pump(body, nil, 3, rl)
		if n != total || waits != 0 || err != nil {
			t.Fatalf("pump moved %d of %d bytes with %d waits: %v", n, total, waits, err)
		}
		rl.finish(nil)
		rl.detach(&body.held)
		reads = body.reads
	})
	// What is left is per transfer: the relay and the body above.
	if allocs > 2 && !raceBuild() {
		t.Errorf("pump allocates %.0f times over %d reads, want 2 per transfer and 0 per Read", allocs, reads)
	}
}

// memOrigin is an upstream that answers every object request from
// memory, in reads of 4 KiB the way a network body arrives, so a miss
// measures the proxy and not a socket.
type memOrigin struct{ data []byte }

func (m memOrigin) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: io.NopCloser(&pieces{m.data, 4096}), ContentLength: int64(len(m.data)), Request: req,
	}, nil
}

// TestServeMissAllocs pins the miss path end to end: two objects take
// turns in an LRU cache that holds one, so every request is a full
// multi-segment miss — eviction, relay, upstream fetch, store adoption,
// reconciliation. The budget is per transfer, whatever the number of
// upstream reads (49 here): the object's sub-segment tail (two
// allocations: only full-size segments are pooled), the relay, its
// goroutine and contexts, the reader's batch, and the upstream request
// and response. The three full-size segments of each object are the
// ones the eviction before it sent back to the pool — which the test
// also counts, so that a reference leaked anywhere on the path (ring,
// batch, chain, view) fails here by name.
func TestServeMissAllocs(t *testing.T) {
	watch := leaktest.Start(t)
	const size = 3*segmentSize + 1000
	const budget = 29 // measured with the pool warm, the same in each of 20 runs (34 before segments were recycled)
	metas := []Meta{
		{ID: 0, Size: size, Rate: units.KBps(512), Value: 1},
		{ID: 1, Size: size, Rate: units.KBps(512), Value: 1},
	}
	catalog, err := NewCatalog(metas)
	if err != nil {
		t.Fatal(err)
	}
	px, err := New(Config{
		Catalog:    catalog,
		OriginURL:  "http://origin.invalid",
		CacheBytes: size,
		NewPolicy:  core.NewLRU,
		Client:     &http.Client{Transport: memOrigin{make([]byte, size)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	watch(px)

	reqs := []*http.Request{
		httptest.NewRequest("GET", "/objects/0", nil),
		httptest.NewRequest("GET", "/objects/1", nil),
	}
	w := &nullResponseWriter{h: make(http.Header)}
	for _, req := range reqs { // fill the pool: the second miss evicts the first
		px.ServeHTTP(w, req)
		px.Quiesce()
	}
	pooled := px.Snapshot().SegmentsRecycled
	var i int
	allocs := testing.AllocsPerRun(100, func() {
		w.n = 0
		px.ServeHTTP(w, reqs[i%2])
		px.Quiesce()
		i++
		if w.n != size {
			t.Fatalf("short response: %d bytes", w.n)
		}
	})
	if st := px.Snapshot(); st.PrefixHits != 0 || st.BytesFetched != st.Requests*size {
		t.Fatalf("not every request was a full miss: %+v", st)
	}
	if raceBuild() {
		return
	}
	if allocs > budget {
		t.Errorf("a full miss allocates %.0f times per transfer, want at most %d", allocs, budget)
	}
	// AllocsPerRun makes one warm-up call and 100 measured ones.
	if got, want := px.Snapshot().SegmentsRecycled-pooled, int64(101*(size/segmentSize)); got != want {
		t.Errorf("%d segments came out of the pool over 101 misses, want every full-size one: %d", got, want)
	}
}
