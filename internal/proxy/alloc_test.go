package proxy

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
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
// an already-published ring through next — pin, aliased chunk, unpin —
// performs zero allocations per iteration.
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
	var seg *segment
	allocs := testing.AllocsPerRun(200, func() {
		if off >= total {
			off = 0 // rewind; everything is still inside the window
		}
		var chunk []byte
		var err error
		seg, chunk, err = rl.next(ctx, off, seg)
		if err != nil || len(chunk) == 0 {
			t.Fatalf("next at %d: %d bytes, err=%v", off, len(chunk), err)
		}
		off += int64(len(chunk))
	})
	rl.detach(seg)
	if allocs != 0 {
		t.Errorf("relay reader loop allocates %.1f times per read, want 0", allocs)
	}
}
