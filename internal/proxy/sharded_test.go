package proxy

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/httpd/httpdtest"
	"streamcache/internal/leaktest"
	"streamcache/internal/units"
)

func TestNewShardedValidation(t *testing.T) {
	catalog := testCatalog(t)
	base := Config{
		Catalog:    catalog,
		OriginURL:  "http://x",
		CacheBytes: units.MB,
		NewPolicy:  core.NewLRU,
	}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cfg := base
	cfg.Catalog = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil catalog accepted")
	}
	cfg = base
	cfg.OriginURL = ""
	if _, err := New(cfg); err == nil {
		t.Error("empty origin accepted")
	}
	cfg = base
	cfg.Shards = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative shards accepted")
	}
	cfg = base
	cfg.NewPolicy = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil policy factory accepted")
	}
	cfg = base
	cfg.CacheBytes = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestShardedCapacitySplit(t *testing.T) {
	px, err := New(Config{
		Catalog:    testCatalog(t),
		OriginURL:  "http://x",
		Shards:     4,
		CacheBytes: 10,
		NewPolicy:  core.NewLRU,
	})
	if err != nil {
		t.Fatal(err)
	}
	if px.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", px.Shards())
	}
	var total int64
	for _, sh := range px.shards {
		sh.state.Read(func(st *shardState) { total += st.cache.Capacity() })
	}
	if total != 10 {
		t.Errorf("shard capacities sum to %d, want 10", total)
	}
}

// startShardedStack brings up an origin and an n-shard proxy in front of
// it over the given catalog.
func startShardedStack(t *testing.T, catalog *Catalog, shards int, cacheBytes int64, newPolicy func() core.Policy, originRate float64) (*Proxy, string) {
	t.Helper()
	watch := leaktest.Start(t)
	origin, err := NewOrigin(catalog, originRate)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)
	px, err := New(Config{
		Catalog:    catalog,
		OriginURL:  originSrv.URL,
		Shards:     shards,
		CacheBytes: cacheBytes,
		NewPolicy:  newPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	watch(px)
	proxySrv := httpdtest.NewServer(px)
	t.Cleanup(proxySrv.Close)
	return px, proxySrv.URL
}

func TestProxyShardedEndToEnd(t *testing.T) {
	catalog := testCatalog(t)
	px, proxyURL := startShardedStack(t, catalog, 8, units.GBytes(1), core.NewIB, 0)
	for round := 0; round < 3; round++ {
		for _, id := range []int{1, 2, 3} {
			meta, _ := catalog.Get(id)
			res, err := Fetch(fmt.Sprintf("%s/objects/%d", proxyURL, id))
			if err != nil {
				t.Fatal(err)
			}
			if res.Bytes != meta.Size {
				t.Fatalf("round %d object %d: %d bytes, want %d", round, id, res.Bytes, meta.Size)
			}
			if want := ContentSHA256(id, meta.Size); res.SHA256 != want {
				t.Fatalf("round %d object %d: digest mismatch", round, id)
			}
		}
	}
	px.Quiesce()
	stats := px.Snapshot()
	if stats.Shards != 8 {
		t.Errorf("stats.Shards = %d, want 8", stats.Shards)
	}
	if stats.Requests != 9 || stats.PrefixHits == 0 {
		t.Errorf("stats = %+v, want 9 requests with prefix hits", stats)
	}
	if want := int64(256+128+64) * units.KB; stats.UsedBytes != want {
		t.Errorf("UsedBytes = %d, want %d (all three objects cached)", stats.UsedBytes, want)
	}
	if stats.Objects != 3 {
		t.Errorf("Objects = %d, want 3", stats.Objects)
	}
	// The origin path's estimate averages the shards that fetched over
	// it — the owners of the three objects — and no other: the rest
	// never measured the path.
	fetched := map[*shard]bool{}
	for _, id := range []int{1, 2, 3} {
		fetched[px.shardFor(id)] = true
	}
	var sum float64
	for i, sh := range px.shards {
		sh.state.Read(func(st *shardState) {
			if e := st.est[0].Estimate(); fetched[sh] {
				if e <= 0 {
					t.Errorf("shard %d fetched from the origin but estimates its path at %v", i, e)
				}
				sum += e
			}
		})
	}
	if got, want := stats.EstimateBps(""), int64(sum/float64(len(fetched))); got != want {
		t.Errorf("/stats origin estimate %d B/s, want %d: the mean over the %d shards that fetched", got, want, len(fetched))
	}
}

// stressCatalog builds n objects with varied sizes so evictions hit
// objects of different weights across shards.
func stressCatalog(t *testing.T, n int) *Catalog {
	t.Helper()
	metas := make([]Meta, n)
	for i := range metas {
		size := int64(16+16*(i%4)) * units.KB
		metas[i] = Meta{ID: i, Size: size, Rate: units.KBps(512), Value: 1}
	}
	c, err := NewCatalog(metas)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestProxyShardedStress hammers one hot object and a spread of cold
// objects across shards with a cache small enough to force continuous
// hit/miss/evict interleavings, asserting every response is
// byte-correct and that store bytes and cache accounting agree once the
// proxy quiesces. Run under -race this is the concurrency regression
// test for the sharded tier.
func TestProxyShardedStress(t *testing.T) {
	const nObjects = 16
	catalog := stressCatalog(t, nObjects)
	// ~5 object-equivalents of capacity: constant eviction churn.
	px, proxyURL := startShardedStack(t, catalog, 4, 160*units.KB, core.NewLRU, 0)

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for i := 0; i < perWorker; i++ {
				// Half the traffic hammers hot object 0 (coalescing,
				// same-shard contention); the rest spreads over the
				// cold tail (cross-shard misses and evictions).
				id := 0
				if rng.Intn(2) == 1 {
					id = 1 + rng.Intn(nObjects-1)
				}
				meta, _ := catalog.Get(id)
				res, err := Fetch(fmt.Sprintf("%s/objects/%d", proxyURL, id))
				if err != nil {
					errs <- fmt.Errorf("object %d: %w", id, err)
					continue
				}
				if res.Bytes != meta.Size {
					errs <- fmt.Errorf("object %d: %d bytes, want %d", id, res.Bytes, meta.Size)
					continue
				}
				if want := ContentSHA256(id, meta.Size); res.SHA256 != want {
					errs <- fmt.Errorf("object %d: digest mismatch under stress", id)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	px.Quiesce()
	stats := px.Snapshot()
	if stats.UsedBytes > 160*units.KB {
		t.Errorf("cache accounting %d exceeds capacity", stats.UsedBytes)
	}
	if got := px.StoredTotal(); got > 160*units.KB {
		t.Errorf("byte stores hold %d bytes, exceeds capacity", got)
	}
	// With no transfer in flight, every shard's store must agree with
	// its cache accounting byte-for-byte.
	for si, sh := range px.shards {
		sh.state.With(func(st *shardState) {
			for id := 0; id < nObjects; id++ {
				if px.shardFor(id) != sh {
					continue
				}
				if stored, acct := sh.store.Len(id), st.cache.CachedBytes(id); stored != acct {
					t.Errorf("shard %d object %d: store %d bytes, cache accounts %d", si, id, stored, acct)
				}
			}
			if len(st.inflight) != 0 {
				t.Errorf("shard %d: %d relays leaked past Quiesce", si, len(st.inflight))
			}
		})
	}
}

// gatedOrigin serves the first firstBytes of each response, then blocks
// until released; if abort is set it kills the connection instead of
// completing, but only for the first `aborts` requests.
type gatedOrigin struct {
	catalog    *Catalog
	firstBytes int64
	release    chan struct{}
	aborts     int32
	requests   atomic.Int32
}

func (g *gatedOrigin) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	g.requests.Add(1)
	id, ok := parseObjectPath(req.URL.Path)
	if !ok {
		http.NotFound(w, req)
		return
	}
	meta, _ := g.catalog.Get(id)
	start, err := parseRangeStart(req.Header.Get("Range"), meta.Size)
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(meta.Size-start, 10))
	if start > 0 {
		w.WriteHeader(http.StatusPartialContent)
	}
	head := g.firstBytes
	if head > meta.Size-start {
		head = meta.Size - start
	}
	if _, err := w.Write(Content(id, start, head)); err != nil {
		return
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	<-g.release
	if atomic.AddInt32(&g.aborts, -1) >= 0 {
		panic(http.ErrAbortHandler)
	}
	if _, err := w.Write(Content(id, start+head, meta.Size-start-head)); err != nil {
		return
	}
}

// startGatedStack wires a gated origin to a fresh single-shard proxy.
func startGatedStack(t *testing.T, catalog *Catalog, gate *gatedOrigin) (*Proxy, string) {
	t.Helper()
	watch := leaktest.Start(t)
	originSrv := httptest.NewServer(gate)
	t.Cleanup(originSrv.Close)
	px, err := New(Config{
		Catalog:    catalog,
		OriginURL:  originSrv.URL,
		Shards:     1,
		CacheBytes: units.GBytes(1),
		NewPolicy:  core.NewIB,
	})
	if err != nil {
		t.Fatal(err)
	}
	watch(px)
	proxySrv := httpdtest.NewServer(px)
	t.Cleanup(proxySrv.Close)
	return px, proxySrv.URL
}

// waitForCoalesced polls until n requests have attached to an in-flight
// relay (or times out).
func waitForCoalesced(t *testing.T, px *Proxy, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for px.Snapshot().CoalescedRequests < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d coalesced requests, want %d", px.Snapshot().CoalescedRequests, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoalescedFetchSingleOriginTransfer pins the singleflight
// guarantee: a thundering herd of clients for one cold object costs
// exactly one transfer over the constrained origin path, and every
// client still receives the complete, byte-correct object.
func TestCoalescedFetchSingleOriginTransfer(t *testing.T) {
	catalog := testCatalog(t)
	meta, _ := catalog.Get(1)
	gate := &gatedOrigin{catalog: catalog, firstBytes: 32 * units.KB, release: make(chan struct{})}
	px, proxyURL := startGatedStack(t, catalog, gate)

	const herd = 6
	results := make([]*FetchResult, herd)
	fetchErrs := make([]error, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], fetchErrs[i] = Fetch(proxyURL + "/objects/1")
		}(i)
	}
	// Every late arrival must attach to the leader's stalled transfer
	// before the origin is released.
	waitForCoalesced(t, px, herd-1)
	close(gate.release)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if fetchErrs[i] != nil {
			t.Fatalf("client %d: %v", i, fetchErrs[i])
		}
		if results[i].Bytes != meta.Size {
			t.Fatalf("client %d: %d bytes, want %d", i, results[i].Bytes, meta.Size)
		}
		if want := ContentSHA256(1, meta.Size); results[i].SHA256 != want {
			t.Fatalf("client %d: digest mismatch", i)
		}
	}
	px.Quiesce()
	if got := gate.requests.Load(); got != 1 {
		t.Errorf("origin saw %d requests for a %d-client herd, want 1", got, herd)
	}
	stats := px.Snapshot()
	if stats.BytesFetched != meta.Size {
		t.Errorf("BytesFetched = %d, want %d (one transfer)", stats.BytesFetched, meta.Size)
	}
	if stats.CoalescedRequests != herd-1 {
		t.Errorf("CoalescedRequests = %d, want %d", stats.CoalescedRequests, herd-1)
	}
}

// TestCoalescedRelayOriginAbort is the failure-path regression: the
// origin dies mid-transfer while a herd is attached to the relay. Every
// client gets a clean truncation, the cached prefix stays consistent
// with cache accounting, and the aborted transfer leaks neither relays
// nor stats.
func TestCoalescedRelayOriginAbort(t *testing.T) {
	catalog := testCatalog(t)
	meta, _ := catalog.Get(1)
	gate := &gatedOrigin{catalog: catalog, firstBytes: 32 * units.KB, release: make(chan struct{}), aborts: 1}
	px, proxyURL := startGatedStack(t, catalog, gate)

	const herd = 4
	results := make([]*FetchResult, herd)
	fetchErrs := make([]error, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], fetchErrs[i] = Fetch(proxyURL + "/objects/1")
		}(i)
	}
	waitForCoalesced(t, px, herd-1)
	close(gate.release)
	wg.Wait()
	px.Quiesce()

	// Clean truncation: no client may think it got the whole object.
	for i := 0; i < herd; i++ {
		if fetchErrs[i] == nil && results[i].Bytes >= meta.Size {
			t.Fatalf("client %d: full object delivered through an aborted transfer", i)
		}
	}
	// Prefix consistency: store and accounting agree, bounded by what
	// the origin actually sent.
	sh := px.shardFor(1)
	var stored, acct int64
	var leaked int
	sh.state.With(func(st *shardState) {
		stored, acct = sh.store.Len(1), st.cache.CachedBytes(1)
		leaked = len(st.inflight)
	})
	if stored != acct {
		t.Errorf("store holds %d bytes, cache accounts %d", stored, acct)
	}
	if stored > 32*units.KB {
		t.Errorf("store holds %d bytes, origin only sent 32 KB", stored)
	}
	if leaked != 0 {
		t.Errorf("%d relays leaked past the abort", leaked)
	}
	// Stats must reflect the single truncated transfer, not the herd.
	stats := px.Snapshot()
	if stats.BytesFetched > 32*units.KB {
		t.Errorf("BytesFetched = %d, want <= 32 KB (single aborted transfer)", stats.BytesFetched)
	}
	if stats.CoalescedRequests != herd-1 {
		t.Errorf("CoalescedRequests = %d, want %d", stats.CoalescedRequests, herd-1)
	}

	// Recovery: the next fetch hits the healthy origin and completes the
	// object from wherever the abort left it.
	res, err := Fetch(proxyURL + "/objects/1")
	if err != nil {
		t.Fatal(err)
	}
	if want := ContentSHA256(1, meta.Size); res.SHA256 != want {
		t.Fatal("recovery fetch corrupted content")
	}
}

// TestRelayCanceledWhenClientsVanish pins the fetch-cancellation rule:
// when every client attached to a relay disconnects mid-transfer, the
// shared origin fetch is aborted instead of pulling the remainder over
// the constrained path for nobody, and the proxy still reconciles to a
// consistent state.
func TestRelayCanceledWhenClientsVanish(t *testing.T) {
	catalog := testCatalog(t)
	gate := &gatedOrigin{catalog: catalog, firstBytes: 32 * units.KB, release: make(chan struct{})}
	px, proxyURL := startGatedStack(t, catalog, gate)
	// Unblock the (aborted) origin handler at cleanup so the httptest
	// server can close.
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(gate.release) }) })

	resp, err := http.Get(proxyURL + "/objects/1")
	if err != nil {
		t.Fatal(err)
	}
	// Read the first flushed bytes, then walk away mid-transfer.
	buf := make([]byte, 8*units.KB)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The sole client is gone: its detach must cancel the origin fetch,
	// so Quiesce returns without the origin ever being released.
	quiesced := make(chan struct{})
	go func() {
		px.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
	case <-time.After(10 * time.Second):
		t.Fatal("relay not canceled: Quiesce still blocked 10s after the last client left")
	}

	sh := px.shardFor(1)
	var stored, acct int64
	var leaked int
	sh.state.With(func(st *shardState) {
		stored, acct = sh.store.Len(1), st.cache.CachedBytes(1)
		leaked = len(st.inflight)
	})
	if stored != acct {
		t.Errorf("store holds %d bytes, cache accounts %d", stored, acct)
	}
	if leaked != 0 {
		t.Errorf("%d relays leaked past cancellation", leaked)
	}
	stats := px.Snapshot()
	if stats.BytesFetched > 32*units.KB {
		t.Errorf("BytesFetched = %d, want <= 32 KB (fetch canceled, not drained)", stats.BytesFetched)
	}
	if stats.ClientAborts != 1 || stats.RelayCancelled != 1 {
		t.Errorf("clientAborts = %d, relayCancelled = %d; want one of each for the one abandoned request",
			stats.ClientAborts, stats.RelayCancelled)
	}
	clientDiesMidBatch(t)
}

// dyingBatchWriter is a client behind a vectored response writer. It
// takes its first send, sits on it until ahead reports that the fetch
// has published past the end of the segment holding the reader's next
// offset — so that the reader's next batch spans at least two segments
// — and dies in the middle of that one: a short count and an error.
type dyingBatchWriter struct {
	nullResponseWriter
	ahead  func(off int64) bool
	sends  int
	chunks int // in the send it died in
}

func (w *dyingBatchWriter) WriteBuffers(bufs [][]byte) (int64, error) {
	if w.sends++; w.sends == 1 {
		var n int64
		for _, b := range bufs {
			n += int64(len(b))
		}
		for deadline := time.Now().Add(30 * time.Second); !w.ahead(n) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return n, nil
	}
	w.chunks = len(bufs)
	return int64(len(bufs[0]) + len(bufs[len(bufs)-1])/2), io.ErrClosedPipe
}

// clientDiesMidBatch is the same rule where the client's death shows as
// a vectored write that comes back short with an error: still exactly
// one client abort and one cancelled fetch, and every segment of the
// batch it was writing is unpinned — what stays out of the pool is what
// the store adopted. The origin holds the fetch after its first 16 KB
// until the client's first send, so that send ends inside the first
// segment: with its reader there, pacing lets the fetch run half a ring
// ahead, past the segment after it.
func clientDiesMidBatch(t *testing.T) {
	live0 := liveSegments()
	px, _, release := stalledStack(t, units.GBytes(1), 16*units.KB, core.NewLRU)
	sh := px.shardFor(1)
	w := &dyingBatchWriter{nullResponseWriter: nullResponseWriter{h: make(http.Header)}}
	w.ahead = func(off int64) (spans bool) {
		release() // the first send is taken: let the fetch run on
		if rl := sh.inflightRelay(1); rl != nil {
			rl.state.Read(func(s *relayState) {
				for _, seg := range s.ring[:s.n] {
					if off < seg.end() {
						spans = s.head > seg.end()
						return
					}
				}
			})
		}
		return spans
	}
	px.ServeHTTP(w, httptest.NewRequest("GET", "/objects/1", nil))
	px.Quiesce()
	if w.chunks < 2 {
		t.Fatalf("the client died in a send of %d chunks: the test proved nothing", w.chunks)
	}
	if st := px.Snapshot(); st.ClientAborts != 1 || st.RelayCancelled != 1 || st.RelayWrites != 2 {
		t.Errorf("clientAborts = %d, relayCancelled = %d over %d sends; want 1, 1 over 2", st.ClientAborts, st.RelayCancelled, st.RelayWrites)
	}
	var stored int64
	sh.store.state.Read(func(st *storeState) { stored = int64(len(st.data[1].segs)) })
	if got := liveSegments() - live0; got != stored {
		t.Errorf("%d segments out of the pool after the abort, the store holds %d: a batch stayed pinned", got, stored)
	}
}

// rangeBlindOrigin ignores Range headers and always answers 200 with
// the full object — the misbehaving-origin case for ranged refetches.
type rangeBlindOrigin struct {
	catalog *Catalog
}

func (o *rangeBlindOrigin) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id, ok := parseObjectPath(req.URL.Path)
	if !ok {
		http.NotFound(w, req)
		return
	}
	meta, _ := o.catalog.Get(id)
	w.Header().Set("Content-Length", strconv.FormatInt(meta.Size, 10))
	w.Write(Content(id, 0, meta.Size))
}

// TestRangedRefetchRejectsFullResponse pins the 206 requirement: an
// origin that ignores Range and replies 200 must not have its body
// spliced in at the requested offset — the refetch fails and the
// cached prefix stays uncorrupted.
func TestRangedRefetchRejectsFullResponse(t *testing.T) {
	watch := leaktest.Start(t)
	catalog := testCatalog(t)
	meta, _ := catalog.Get(1)
	origin, err := NewOrigin(catalog, 0)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyOrigin{inner: origin, failures: 1, bytesToServe: 32 * units.KB, catalog: catalog}
	originSrv := httptest.NewServer(flaky)
	defer originSrv.Close()
	blindSrv := httptest.NewServer(&rangeBlindOrigin{catalog: catalog})
	defer blindSrv.Close()

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
	proxySrv := httpdtest.NewServer(px)
	defer proxySrv.Close()

	// Seed a 32 KB prefix via the aborting origin, so the next request
	// must refetch with a Range header.
	if res, err := Fetch(proxySrv.URL + "/objects/1"); err == nil && res.Bytes == meta.Size {
		t.Fatal("flaky origin unexpectedly delivered the full object")
	}
	px.Quiesce()
	if got := px.StoredBytes(1); got == 0 || got > 32*units.KB {
		t.Fatalf("seeded prefix = %d bytes, want in (0, 32 KB]", got)
	}
	prefix := px.StoredBytes(1)

	// Point the proxy at the range-blind origin for the refetch.
	px.originURL = blindSrv.URL
	px.upstreams[0].url = blindSrv.URL
	res, err := Fetch(proxySrv.URL + "/objects/1")
	if err == nil && res.Bytes == meta.Size {
		t.Fatal("full object delivered through a 200 answer to a ranged request")
	}
	px.Quiesce()
	// The prefix must be untouched and still byte-correct.
	if got := px.StoredBytes(1); got != prefix {
		t.Errorf("prefix changed from %d to %d bytes after rejected refetch", prefix, got)
	}
	sh := px.shardFor(1)
	want := Content(1, 0, prefix)
	if got := sh.store.Prefix(1); string(got) != string(want) {
		t.Error("cached prefix corrupted by range-blind origin")
	}
}

func TestCatalogOrigins(t *testing.T) {
	c, err := NewCatalog([]Meta{
		{ID: 1, Size: 1, Rate: 1, Origin: "http://b"},
		{ID: 2, Size: 1, Rate: 1, Origin: "http://a"},
		{ID: 3, Size: 1, Rate: 1, Origin: "http://b"},
		{ID: 4, Size: 1, Rate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Origins()
	if len(got) != 2 || got[0] != "http://a" || got[1] != "http://b" {
		t.Errorf("Origins = %v, want [http://a http://b]", got)
	}
}

func TestFetchResultHitBytes(t *testing.T) {
	tests := []struct {
		state string
		want  int64
	}{
		{"HIT-PREFIX; bytes=4096", 4096},
		{"MISS", 0},
		{"", 0},
		{"HIT-PREFIX; bytes=bogus", 0},
	}
	for _, tt := range tests {
		r := &FetchResult{CacheState: tt.state}
		if got := r.HitBytes(); got != tt.want {
			t.Errorf("HitBytes(%q) = %d, want %d", tt.state, got, tt.want)
		}
	}
}
