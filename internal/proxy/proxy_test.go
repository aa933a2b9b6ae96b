package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/units"
)

// newTestProxy builds a one-shard proxy over catalog whose cache runs
// the given policy instance.
func newTestProxy(t *testing.T, catalog *Catalog, policy core.Policy, cacheBytes int64, originURL string) *Proxy {
	t.Helper()
	px, err := New(Config{
		Catalog: catalog, OriginURL: originURL,
		CacheBytes: cacheBytes, NewPolicy: func() core.Policy { return policy },
	})
	if err != nil {
		t.Fatal(err)
	}
	return px
}

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	// Small objects so rate-limited tests stay fast: 256 KB at 512 KB/s
	// playback (0.5 s streams).
	objects := []Meta{
		{ID: 1, Size: 256 * units.KB, Rate: units.KBps(512), Value: 5},
		{ID: 2, Size: 128 * units.KB, Rate: units.KBps(512), Value: 2},
		{ID: 3, Size: 64 * units.KB, Rate: units.KBps(256), Value: 9},
	}
	c, err := NewCatalog(objects)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSnapshotTierBytesHasOrigin: a fresh proxy's Stats name the origin
// tier before any fetch, in the snapshot and in the /stats JSON decoded
// from it, because New registers the default origin as an upstream.
// loadgen's live table reads every node's upstream bytes from TierBytes
// on that ground.
func TestSnapshotTierBytesHasOrigin(t *testing.T) {
	px := newTestProxy(t, testCatalog(t), core.NewPB(), units.MB, "http://origin.invalid")
	raw, err := json.Marshal(px.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	for name, tiers := range map[string]map[string]int64{"snapshot": px.Snapshot().TierBytes, "decoded /stats": st.TierBytes} {
		if b, ok := tiers["origin"]; !ok || b != 0 {
			t.Errorf("%s: TierBytes = %v, want an origin entry of 0 bytes", name, tiers)
		}
	}
}

func TestNewCatalogValidation(t *testing.T) {
	if _, err := NewCatalog([]Meta{{ID: 1, Size: 0, Rate: 1}}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewCatalog([]Meta{{ID: 1, Size: 1, Rate: 0}}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewCatalog([]Meta{{ID: 1, Size: 1, Rate: 1}, {ID: 1, Size: 2, Rate: 1}}); err == nil {
		t.Error("duplicate ID accepted")
	}
	// The cache's dense ID tables require small non-negative IDs; a bad
	// ID must fail at catalog construction, not panic on first request.
	if _, err := NewCatalog([]Meta{{ID: -1, Size: 1, Rate: 1}}); err == nil {
		t.Error("negative ID accepted")
	}
	if _, err := NewCatalog([]Meta{{ID: 1 << 31, Size: 1, Rate: 1}}); err == nil {
		t.Error("ID above 2^31 accepted")
	}
}

func TestCatalogDerivesDuration(t *testing.T) {
	c, err := NewCatalog([]Meta{{ID: 7, Size: 1000, Rate: 100}})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := c.Get(7)
	if !ok {
		t.Fatal("object 7 missing")
	}
	if m.Duration != 10 {
		t.Errorf("Duration = %v, want 10", m.Duration)
	}
	if got := c.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
	if ids := c.IDs(); len(ids) != 1 || ids[0] != 7 {
		t.Errorf("IDs = %v, want [7]", ids)
	}
}

func TestContentDeterministic(t *testing.T) {
	a := Content(5, 0, 10000)
	b := Content(5, 0, 10000)
	if !bytes.Equal(a, b) {
		t.Error("Content not deterministic")
	}
	other := Content(6, 0, 10000)
	if bytes.Equal(a, other) {
		t.Error("different objects produced identical content")
	}
}

func TestContentRangeConsistency(t *testing.T) {
	// Content(id, off, n) must equal the corresponding slice of the full
	// object regardless of block alignment.
	full := Content(9, 0, 20000)
	for _, tt := range []struct{ off, n int64 }{
		{0, 1}, {1, 4095}, {4095, 2}, {4096, 4096}, {5000, 10000}, {19999, 1},
	} {
		part := Content(9, tt.off, tt.n)
		if !bytes.Equal(part, full[tt.off:tt.off+tt.n]) {
			t.Errorf("Content(9, %d, %d) differs from full slice", tt.off, tt.n)
		}
	}
	if Content(9, 0, 0) != nil {
		t.Error("zero-length content not nil")
	}
}

func TestParseObjectPath(t *testing.T) {
	tests := []struct {
		path   string
		wantID int
		wantOK bool
	}{
		{"/objects/12", 12, true},
		{"/objects/0", 0, true},
		{"/objects/-1", 0, false},
		{"/objects/abc", 0, false},
		{"/other/12", 0, false},
		{"/objects/", 0, false},
	}
	for _, tt := range tests {
		id, ok := parseObjectPath(tt.path)
		if id != tt.wantID || ok != tt.wantOK {
			t.Errorf("parseObjectPath(%q) = (%d, %v), want (%d, %v)", tt.path, id, ok, tt.wantID, tt.wantOK)
		}
	}
}

func TestParseRangeStart(t *testing.T) {
	tests := []struct {
		header  string
		want    int64
		wantErr bool
	}{
		{"", 0, false},
		{"bytes=0-", 0, false},
		{"bytes=100-", 100, false},
		{"bytes=100-200", 0, true},
		{"bytes=-100", 0, true},
		{"chunks=1-", 0, true},
		{"bytes=99999-", 0, true},  // beyond size
		{"bytes=999-", 999, false}, // the last byte
		{"bytes=1000-", 0, true},   // at size: selects no byte
		{"bytes=+5-", 0, true},     // a range start is digits only
	}
	for _, tt := range tests {
		got, err := parseRangeStart(tt.header, 1000)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseRangeStart(%q) err = %v, wantErr %v", tt.header, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("parseRangeStart(%q) = %d, want %d", tt.header, got, tt.want)
		}
	}
}

// FuzzParseRangeStart: whatever the Range header, the parser neither
// panics nor accepts anything but "bytes=<digits>-" with a start inside
// the object, and the origin serves exactly what it accepted — 206 with
// the bytes from start on and a well-formed Content-Range — and answers
// everything else 416 naming the size.
func FuzzParseRangeStart(f *testing.F) {
	for _, seed := range []string{"", "bytes=0-", "bytes=100-", "bytes=999-", "bytes=1000-", "bytes=100-200",
		"bytes=-100", "bytes=+5-", "bytes=007-", "bytes= 5-", "bytes=5-,7-", "chunks=1-", "bytes=99999999999999999999-"} {
		f.Add(seed, int64(1000))
	}
	catalog, err := NewCatalog([]Meta{{ID: 1, Size: 1000, Rate: 1}})
	if err != nil {
		f.Fatal(err)
	}
	origin, err := NewOrigin(catalog, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, header string, size int64) {
		start, err := parseRangeStart(header, size)
		if err == nil && header != "" {
			digits := strings.TrimSuffix(strings.TrimPrefix(header, "bytes="), "-")
			if len(digits)+len("bytes=-") != len(header) || strings.Trim(digits, "0123456789") != "" || digits == "" {
				t.Fatalf("parseRangeStart(%q, %d) accepted a header that is not bytes=<digits>-", header, size)
			}
			if n, perr := strconv.ParseInt(digits, 10, 64); perr != nil || n != start {
				t.Fatalf("parseRangeStart(%q, %d) = %d, the digits say %d (%v)", header, size, start, n, perr)
			}
		}
		if err == nil && (start < 0 || start >= size && header != "" || header == "" && start != 0) {
			t.Fatalf("parseRangeStart(%q, %d) = %d: outside the object", header, size, start)
		}

		req := httptest.NewRequest("GET", "/objects/1", nil)
		req.Header["Range"] = []string{header}
		rec := httptest.NewRecorder()
		origin.ServeHTTP(rec, req)
		start, err = parseRangeStart(header, 1000)
		switch {
		case err != nil:
			if rec.Code != 416 || rec.Header().Get("Content-Range") != "bytes */1000" {
				t.Fatalf("Range %q: status %d, Content-Range %q; want 416, bytes */1000", header, rec.Code, rec.Header().Get("Content-Range"))
			}
		case start == 0:
			if rec.Code != 200 || rec.Body.Len() != 1000 {
				t.Fatalf("Range %q: status %d, %d bytes; want 200 and the object", header, rec.Code, rec.Body.Len())
			}
		default:
			want := fmt.Sprintf("bytes %d-999/1000", start)
			if rec.Code != 206 || rec.Header().Get("Content-Range") != want || !bytes.Equal(rec.Body.Bytes(), Content(1, start, 1000-start)) {
				t.Fatalf("Range %q: status %d, Content-Range %q, %d bytes; want 206, %q, the bytes from %d on",
					header, rec.Code, rec.Header().Get("Content-Range"), rec.Body.Len(), want, start)
			}
		}
	})
}

func TestPrefixStoreBasics(t *testing.T) {
	s := NewPrefixStore()
	if s.Prefix(1) != nil || s.Len(1) != 0 {
		t.Error("empty store not empty")
	}
	n := s.AppendAt(1, 0, []byte("hello"), 10)
	if n != 5 || s.Len(1) != 5 {
		t.Errorf("AppendAt = %d, Len = %d; want 5, 5", n, s.Len(1))
	}
	// Limit clips the append.
	n = s.AppendAt(1, 5, []byte("worldworld"), 8)
	if n != 3 || s.Len(1) != 8 {
		t.Errorf("clipped AppendAt = %d, Len = %d; want 3, 8", n, s.Len(1))
	}
	if got := string(s.Prefix(1)); got != "hellowor" {
		t.Errorf("Prefix = %q, want \"hellowor\"", got)
	}
	s.Truncate(1, 5)
	if got := string(s.Prefix(1)); got != "hello" {
		t.Errorf("after Truncate Prefix = %q, want \"hello\"", got)
	}
	s.Truncate(1, 0)
	if s.Prefix(1) != nil {
		t.Error("Truncate(0) did not delete")
	}
	s.Truncate(99, 5) // no-op on unknown id
	if s.TotalBytes() != 0 {
		t.Errorf("TotalBytes = %d, want 0", s.TotalBytes())
	}
}

func TestPrefixStoreAppendAtOverlap(t *testing.T) {
	s := NewPrefixStore()
	s.AppendAt(1, 0, []byte("hello"), 100)
	// Overlapping write: first 5 bytes already present, only " world"
	// is appended.
	n := s.AppendAt(1, 3, []byte("lo world"), 100)
	if n != 6 {
		t.Errorf("overlap AppendAt = %d, want 6", n)
	}
	if got := string(s.Prefix(1)); got != "hello world" {
		t.Errorf("Prefix = %q, want \"hello world\"", got)
	}
	// Fully-contained write is a no-op.
	if n := s.AppendAt(1, 2, []byte("llo"), 100); n != 0 {
		t.Errorf("contained AppendAt = %d, want 0", n)
	}
	// A gap write is dropped.
	if n := s.AppendAt(1, 50, []byte("xyz"), 100); n != 0 {
		t.Errorf("gap AppendAt = %d, want 0", n)
	}
	if got := string(s.Prefix(1)); got != "hello world" {
		t.Errorf("Prefix corrupted: %q", got)
	}
}

func TestPrefixStoreCopies(t *testing.T) {
	s := NewPrefixStore()
	s.AppendAt(1, 0, []byte("abc"), 10)
	p := s.Prefix(1)
	p[0] = 'z'
	if got := string(s.Prefix(1)); got != "abc" {
		t.Errorf("store mutated through returned slice: %q", got)
	}
}

func TestRateLimitedWriterThrottles(t *testing.T) {
	var buf bytes.Buffer
	w := newRateLimitedWriter(&buf, 64*1024) // 64 KB/s
	var slept time.Duration
	now := time.Unix(0, 0)
	w.now = func() time.Time { return now }
	w.sleep = func(d time.Duration) {
		slept += d
		now = now.Add(d)
	}
	data := make([]byte, 64*1024)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	// 64 KB at 64 KB/s with an 8 KB initial bucket: ~0.875 s of sleeping.
	if slept < 700*time.Millisecond || slept > 1100*time.Millisecond {
		t.Errorf("slept %v for 64 KB at 64 KB/s, want ~0.875s", slept)
	}
	if buf.Len() != len(data) {
		t.Errorf("wrote %d bytes, want %d", buf.Len(), len(data))
	}
}

func TestRateLimitedWriterUnlimited(t *testing.T) {
	var buf bytes.Buffer
	w := newRateLimitedWriter(&buf, 0)
	w.sleep = func(time.Duration) { t.Error("unlimited writer slept") }
	if _, err := w.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 1<<20 {
		t.Errorf("wrote %d, want %d", buf.Len(), 1<<20)
	}
}

func TestNewOriginValidation(t *testing.T) {
	if _, err := NewOrigin(nil, 0); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := NewOrigin(testCatalog(t), -1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestOriginServesFullObject(t *testing.T) {
	origin, err := NewOrigin(testCatalog(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(origin)
	defer srv.Close()

	res, err := Fetch(srv.URL + "/objects/2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 128*units.KB {
		t.Errorf("fetched %d bytes, want %d", res.Bytes, 128*units.KB)
	}
	if want := ContentSHA256(2, 128*units.KB); res.SHA256 != want {
		t.Errorf("digest mismatch: got %s, want %s", res.SHA256, want)
	}
}

func TestOriginServesRange(t *testing.T) {
	origin, err := NewOrigin(testCatalog(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(origin)
	defer srv.Close()

	req := httptest.NewRequest("GET", "/objects/3", nil)
	req.Header.Set("Range", "bytes=1000-")
	rec := httptest.NewRecorder()
	origin.ServeHTTP(rec, req)
	if rec.Code != 206 {
		t.Fatalf("status = %d, want 206", rec.Code)
	}
	want := Content(3, 1000, 64*units.KB-1000)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Error("range response content mismatch")
	}
}

func TestOriginErrors(t *testing.T) {
	origin, err := NewOrigin(testCatalog(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		method   string
		path     string
		rangeHdr string
		want     int
	}{
		{name: "unknown object", method: "GET", path: "/objects/404", want: 404},
		{name: "bad path", method: "GET", path: "/nope", want: 404},
		{name: "bad method", method: "POST", path: "/objects/1", want: 405},
		{name: "bad range", method: "GET", path: "/objects/1", rangeHdr: "bytes=5-10", want: 416},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req := httptest.NewRequest(tt.method, tt.path, nil)
			if tt.rangeHdr != "" {
				req.Header.Set("Range", tt.rangeHdr)
			}
			rec := httptest.NewRecorder()
			origin.ServeHTTP(rec, req)
			if rec.Code != tt.want {
				t.Errorf("status = %d, want %d", rec.Code, tt.want)
			}
		})
	}
}

func TestStartupDelayComputation(t *testing.T) {
	r := &FetchResult{samples: []arrivalSample{
		{t: 1 * time.Second, cum: 100},
		{t: 2 * time.Second, cum: 200},
		{t: 3 * time.Second, cum: 300},
	}}
	// Playback at 100 B/s: byte 100 needed at w+1s, arrives at 1s ->
	// w=0 works for every sample.
	if got := r.StartupDelay(100); got != 0 {
		t.Errorf("StartupDelay(100) = %v, want 0", got)
	}
	// Playback at 200 B/s: byte 200 needed at w+1s but arrives at 2s ->
	// w >= 1s; byte 300 needs w >= 1.5s.
	if got := r.StartupDelay(200); got != 1500*time.Millisecond {
		t.Errorf("StartupDelay(200) = %v, want 1.5s", got)
	}
	if got := r.StartupDelay(0); got != 0 {
		t.Errorf("StartupDelay(0) = %v, want 0", got)
	}
}
