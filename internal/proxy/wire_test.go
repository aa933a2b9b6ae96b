package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/httpd/httpdtest"
	"streamcache/internal/leaktest"
	"streamcache/internal/units"
)

// TestHeadAndOtherMethodsTouchNothing pins the method fix: HEAD answers
// the headers a GET would get now — from the current view, without a
// cache access or an upstream transfer — and anything but GET and HEAD
// is 405. Neither moves a counter.
func TestHeadAndOtherMethodsTouchNothing(t *testing.T) {
	px, proxyURL, _ := startStack(t, core.NewIB(), units.GBytes(1), 0)
	if _, err := Fetch(proxyURL + "/objects/1"); err != nil {
		t.Fatal(err)
	}
	px.Quiesce()
	before := px.Snapshot()
	before.EstimatesBps = nil

	serve := func(method, path, rangeHdr string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, nil)
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		rec := httptest.NewRecorder()
		px.ServeHTTP(rec, req)
		return rec
	}
	for _, tt := range []struct {
		path, rangeHdr string
		status         int
		length, xcache string
	}{
		{"/objects/1", "", 200, "262144", "HIT-PREFIX; bytes=262144"},
		{"/objects/1", "bytes=1000-", 206, "261144", "HIT-PREFIX; bytes=261144"},
		{"/objects/2", "", 200, "131072", "MISS"}, // never fetched, and still not
	} {
		rec := serve("HEAD", tt.path, tt.rangeHdr)
		h := rec.Header()
		if rec.Code != tt.status || h.Get("Content-Length") != tt.length || h.Get("X-Cache") != tt.xcache ||
			h.Get("Content-Type") != "video/mpeg" || rec.Body.Len() != 0 {
			t.Errorf("HEAD %s %q: status %d, Content-Length %q, X-Cache %q, Content-Type %q, %d body bytes; want %d, %q, %q, video/mpeg, none",
				tt.path, tt.rangeHdr, rec.Code, h.Get("Content-Length"), h.Get("X-Cache"), h.Get("Content-Type"), rec.Body.Len(),
				tt.status, tt.length, tt.xcache)
		}
	}
	for _, method := range []string{"POST", "PUT", "DELETE", "OPTIONS"} {
		for _, path := range []string{"/objects/2", "/stats"} {
			rec := serve(method, path, "")
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD" {
				t.Errorf("%s %s: status %d, Allow %q; want 405, \"GET, HEAD\"", method, path, rec.Code, rec.Header().Get("Allow"))
			}
		}
	}
	px.Quiesce()
	after := px.Snapshot()
	after.EstimatesBps = nil
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("HEAD and refused methods moved the counters:\n before %+v\n after  %+v", before, after)
	}
	if before.Requests != 1 || before.BytesFetched != 256*units.KB {
		t.Errorf("baseline: %d requests, %d origin bytes; want the one warming GET", before.Requests, before.BytesFetched)
	}
}

// TestRangeAtSizeIsUnsatisfiable: "bytes=<size>-" selects no byte. It
// used to be answered 206 with Content-Length 0 and the malformed
// Content-Range "bytes N-(N-1)/N"; every rejected range now also says
// what size the next one must fit.
func TestRangeAtSizeIsUnsatisfiable(t *testing.T) {
	px, _, _ := startStack(t, core.NewIB(), units.GBytes(1), 0)
	origin, err := NewOrigin(testCatalog(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]http.Handler{"proxy": px, "origin": origin} {
		for _, rangeHdr := range []string{"bytes=65536-", "bytes=65537-", "bytes=5-10", "chunks=1-"} {
			req := httptest.NewRequest("GET", "/objects/3", nil)
			req.Header.Set("Range", rangeHdr)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestedRangeNotSatisfiable || rec.Header().Get("Content-Range") != "bytes */65536" {
				t.Errorf("%s, Range %q: status %d, Content-Range %q; want 416, \"bytes */65536\"",
					name, rangeHdr, rec.Code, rec.Header().Get("Content-Range"))
			}
		}
		// The last byte alone is still a range.
		req := httptest.NewRequest("GET", "/objects/3", nil)
		req.Header.Set("Range", "bytes=65535-")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 206 || rec.Header().Get("Content-Range") != "bytes 65535-65535/65536" || rec.Body.Len() != 1 {
			t.Errorf("%s, last byte: status %d, Content-Range %q, %d bytes", name, rec.Code, rec.Header().Get("Content-Range"), rec.Body.Len())
		}
	}
	px.Quiesce()
	if got := px.Snapshot().Requests; got != 1 {
		t.Errorf("%d requests counted, want 1: a rejected range is not an access", got)
	}
}

// TestWireMatchesNetHTTP runs one script against two identical proxies,
// one behind net/http (httptest) and one behind the wire loop proxyd
// serves through, and requires the same status, framing headers and body
// bytes at every step.
func TestWireMatchesNetHTTP(t *testing.T) {
	watch := leaktest.Start(t)
	catalog := testCatalog(t)
	origin, err := NewOrigin(catalog, 0)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	var proxies [2]*Proxy
	for i := range proxies {
		proxies[i] = newTestProxy(t, catalog, core.NewIB(), units.GBytes(1), originSrv.URL)
	}
	watch(proxies[0], proxies[1])
	reference := httptest.NewServer(proxies[0])
	defer reference.Close()
	wire := httpdtest.NewServer(proxies[1])
	defer wire.Close()
	urls := [2]string{reference.URL, wire.URL}

	type step struct{ method, path, rangeHdr string }
	script := []step{
		{"GET", "/objects/1", ""},            // 200, MISS
		{"GET", "/objects/1", ""},            // 200, full prefix hit
		{"GET", "/objects/1", "bytes=1000-"}, // 206 out of the prefix
		{"GET", "/objects/3", "bytes=7-"},    // 206, cold: ranged relay
		{"GET", "/objects/1", "bytes=262144-"},
		{"GET", "/objects/1", "bytes=5-10"},
		{"GET", "/objects/404", ""},
		{"GET", "/nope", ""},
		{"POST", "/objects/1", ""},
		{"DELETE", "/stats", ""},
		{"HEAD", "/objects/1", ""},
		{"HEAD", "/objects/2", ""}, // uncached: MISS headers, no fetch
		{"HEAD", "/objects/404", ""},
		{"GET", "/objects/2", ""},
		{"GET", "/stats", ""},
	}
	type answer struct {
		status  int
		length  int64
		headers [5]string
		body    []byte
	}
	ask := func(base string, s step) answer {
		req, err := http.NewRequest(s.method, base+s.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.rangeHdr != "" {
			req.Header.Set("Range", s.rangeHdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%v: body: %v", s, err)
		}
		a := answer{status: resp.StatusCode, length: resp.ContentLength, body: body}
		for i, name := range []string{"Content-Length", "Content-Range", "Content-Type", "X-Cache", "Allow"} {
			a.headers[i] = resp.Header.Get(name)
		}
		return a
	}
	for _, s := range script {
		var got [2]answer
		for i, base := range urls {
			got[i] = ask(base, s)
			proxies[i].Quiesce()
		}
		ref, wire := got[0], got[1]
		if s.path == "/stats" && s.method == "GET" {
			// The bodies hold measured bandwidth; compare what is counted.
			var stats [2]Stats
			for i := range got {
				if err := json.Unmarshal(got[i].body, &stats[i]); err != nil {
					t.Fatalf("/stats via %s: %v", urls[i], err)
				}
				stats[i].EstimatesBps, stats[i].DefaultOrigin = nil, ""
			}
			// How many sends a relay took is timing: a reader sends what
			// is published when it looks, and never waits for more.
			stats[0].RelayWrites, stats[1].RelayWrites = 0, 0
			if fmt.Sprint(stats[0]) != fmt.Sprint(stats[1]) {
				t.Errorf("/stats differ:\n net/http %+v\n wire     %+v", stats[0], stats[1])
			}
			ref.body, wire.body, ref.length, wire.length = nil, nil, 0, 0
			ref.headers[0], wire.headers[0] = "", ""
		}
		if ref.status != wire.status || ref.length != wire.length || ref.headers != wire.headers || !bytes.Equal(ref.body, wire.body) {
			t.Errorf("%v:\n net/http: %d length %d %q, %d body bytes\n wire:     %d length %d %q, %d body bytes",
				s, ref.status, ref.length, ref.headers, len(ref.body), wire.status, wire.length, wire.headers, len(wire.body))
		}
	}
}

// TestWireHitAllocs pins what a keep-alive prefix hit costs on the wire
// proxyd runs, measured over a real loopback connection with a client
// that allocates nothing. At most two small allocations per request:
//
//  1. httpd's string copy of the request head, which method, path and
//     header values are substrings of — the only one in a normal build;
//  2. under -race, sync.Pool drops a quarter of what is put back, so
//     WriteRangeTo re-makes its segment vector now and then.
//
// Proxy.ServeHTTP on a warmed prefix adds none
// (TestServePrefixHitAllocFree), and request, URL, header maps, rendered
// head and write vector are the connection's.
func TestWireHitAllocs(t *testing.T) {
	const size = 3*segmentSize + 1000
	metas := []Meta{{ID: 0, Size: size, Rate: units.KBps(512), Value: 1}, {ID: 1, Size: size, Rate: units.KBps(512), Value: 1}}
	catalog, err := NewCatalog(metas)
	if err != nil {
		t.Fatal(err)
	}
	px, proxyURL := startShardedStack(t, catalog, 2, units.GBytes(1), core.NewIB, 0)
	c, err := net.Dial("tcp", proxyURL[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	reqs := [2][]byte{[]byte("GET /objects/0 HTTP/1.1\r\nHost: t\r\n\r\n"), []byte("GET /objects/1 HTTP/1.1\r\nHost: t\r\n\r\n")}
	buf := make([]byte, 64<<10)
	var i int
	var head []byte
	fetch := func() {
		if _, err := c.Write(reqs[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
		for got, want := 0, -1; want < 0 || got < want; {
			n, err := c.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			if want < 0 {
				at := bytes.Index(buf[:n], []byte("\r\n\r\n"))
				if at < 0 {
					t.Fatalf("no complete head in the first %d bytes", n)
				}
				head = append(head[:0], buf[:at]...)
				want = at + 4 + size
			}
			got += n
		}
	}
	for range 4 { // warm both objects, and the pools
		fetch()
		px.Quiesce()
	}
	if want := "X-Cache: HIT-PREFIX; bytes=" + strconv.Itoa(size); !bytes.Contains(head, []byte(want)) {
		t.Fatalf("not a full prefix hit after warm-up: %q", head)
	}
	if allocs := testing.AllocsPerRun(200, fetch); allocs > 2 {
		t.Errorf("a keep-alive hit on the wire allocates %.1f times, want at most 2", allocs)
	}
}
