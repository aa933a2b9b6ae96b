package proxy

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"streamcache/internal/core"
	"streamcache/internal/httpd/httpdtest"
	"streamcache/internal/leaktest"
	"streamcache/internal/units"
)

// flakyOrigin wraps a real origin but aborts the connection after
// sending a configurable number of bytes, for the first `failures`
// requests it sees.
type flakyOrigin struct {
	inner        http.Handler
	failures     int32
	bytesToServe int64
	catalog      *Catalog
}

func (f *flakyOrigin) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if atomic.AddInt32(&f.failures, -1) < 0 {
		f.inner.ServeHTTP(w, req)
		return
	}
	id, ok := parseObjectPath(req.URL.Path)
	if !ok {
		http.NotFound(w, req)
		return
	}
	meta, _ := f.catalog.Get(id)
	start, err := parseRangeStart(req.Header.Get("Range"), meta.Size)
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	// Claim the full remaining length, then cut the stream short so the
	// proxy sees a mid-transfer failure.
	w.Header().Set("Content-Length", strconv.FormatInt(meta.Size-start, 10))
	if start > 0 {
		w.WriteHeader(http.StatusPartialContent)
	}
	if _, err := w.Write(Content(id, start, f.bytesToServe)); err != nil {
		return
	}
	if f2, ok := w.(http.Flusher); ok {
		f2.Flush()
	}
	// Abort the connection without completing the body.
	panic(http.ErrAbortHandler)
}

func TestProxySurvivesOriginAbort(t *testing.T) {
	watch := leaktest.Start(t)
	catalog := testCatalog(t)
	origin, err := NewOrigin(catalog, 0)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyOrigin{inner: origin, failures: 1, bytesToServe: 32 * units.KB, catalog: catalog}
	originSrv := httptest.NewServer(flaky)
	defer originSrv.Close()

	px := newTestProxy(t, catalog, core.NewIB(), units.GBytes(1), originSrv.URL)
	watch(px)
	proxySrv := httpdtest.NewServer(px)
	defer proxySrv.Close()

	url := fmt.Sprintf("%s/objects/1", proxySrv.URL)
	// First fetch: origin aborts mid-stream; the client sees a short
	// body. The proxy must reconcile its cache accounting down to the
	// bytes actually materialized.
	if res, err := Fetch(url); err == nil && res.Bytes == 256*units.KB {
		t.Fatal("first fetch unexpectedly delivered the full object from a flaky origin")
	}
	px.Quiesce() // let the aborted relay finish its reconciliation
	if got, want := px.AccountedBytes(1), px.StoredBytes(1); got != want {
		t.Fatalf("after abort: cache accounts %d bytes, store has %d", got, want)
	}
	if px.AccountedBytes(1) > 32*units.KB {
		t.Fatalf("after abort: cache accounts %d bytes, origin only sent 32 KB", px.AccountedBytes(1))
	}

	// Second fetch hits the healthy origin: content must be complete and
	// intact, growing the prefix from wherever the abort left it.
	res, err := Fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 256*units.KB {
		t.Fatalf("recovery fetch: %d bytes, want full object", res.Bytes)
	}
	if want := ContentSHA256(1, 256*units.KB); res.SHA256 != want {
		t.Fatal("recovery fetch corrupted content")
	}
	// Third fetch should now be a clean prefix hit.
	res, err = Fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	if want := ContentSHA256(1, 256*units.KB); res.SHA256 != want {
		t.Fatal("post-recovery fetch corrupted content")
	}
}

func TestProxyOriginDown(t *testing.T) {
	watch := leaktest.Start(t)
	catalog := testCatalog(t)
	// Point the proxy at a dead origin.
	px := newTestProxy(t, catalog, core.NewIB(), units.GBytes(1), "http://127.0.0.1:1")
	watch(px)
	proxySrv := httpdtest.NewServer(px)
	defer proxySrv.Close()

	res, err := Fetch(proxySrv.URL + "/objects/1")
	// The fetch must not hang or panic; it either errors or returns a
	// truncated body.
	if err == nil && res.Bytes == 256*units.KB {
		t.Fatal("full object delivered with no origin")
	}
	px.Quiesce()
	// Cache accounting must not leak bytes that never arrived.
	if got, want := px.AccountedBytes(1), px.StoredBytes(1); got != want {
		t.Fatalf("cache accounts %d bytes, store has %d", got, want)
	}
}
