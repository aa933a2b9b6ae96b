package proxy

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"streamcache/internal/core"
	"streamcache/internal/httpd/httpdtest"
	"streamcache/internal/leaktest"
	"streamcache/internal/units"
)

// startStack brings up a rate-limited origin and a proxy in front of it,
// returning the proxy, its base URL, and the origin URL.
func startStack(t *testing.T, policy core.Policy, cacheBytes int64, originRate float64) (*Proxy, string, string) {
	t.Helper()
	watch := leaktest.Start(t)
	catalog := testCatalog(t)
	origin, err := NewOrigin(catalog, originRate)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)

	px := newTestProxy(t, catalog, policy, cacheBytes, originSrv.URL)
	watch(px)
	proxySrv := httpdtest.NewServer(px)
	t.Cleanup(proxySrv.Close)
	return px, proxySrv.URL, originSrv.URL
}

func TestProxyEndToEndIntegrity(t *testing.T) {
	// Unlimited origin: verify joint delivery reassembles objects
	// byte-exactly across repeated (cached) fetches.
	_, proxyURL, _ := startStack(t, core.NewIB(), units.GBytes(1), 0)
	for round := 0; round < 3; round++ {
		for _, id := range []int{1, 2, 3} {
			res, err := Fetch(fmt.Sprintf("%s/objects/%d", proxyURL, id))
			if err != nil {
				t.Fatal(err)
			}
			var size int64
			switch id {
			case 1:
				size = 256 * units.KB
			case 2:
				size = 128 * units.KB
			case 3:
				size = 64 * units.KB
			}
			if res.Bytes != size {
				t.Fatalf("round %d object %d: %d bytes, want %d", round, id, res.Bytes, size)
			}
			if want := ContentSHA256(id, size); res.SHA256 != want {
				t.Fatalf("round %d object %d: digest mismatch (cache state %q)", round, id, res.CacheState)
			}
		}
	}
}

func TestProxyCachesAfterFirstAccess(t *testing.T) {
	px, proxyURL, _ := startStack(t, core.NewIB(), units.GBytes(1), 0)
	first, err := Fetch(proxyURL + "/objects/1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.CacheState, "MISS") {
		t.Errorf("first fetch X-Cache = %q, want MISS", first.CacheState)
	}
	second, err := Fetch(proxyURL + "/objects/1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.CacheState, "HIT-PREFIX") {
		t.Errorf("second fetch X-Cache = %q, want HIT-PREFIX", second.CacheState)
	}
	px.Quiesce() // the handler counts the hit after the client has its last byte
	stats := px.Snapshot()
	if stats.Requests != 2 || stats.PrefixHits != 1 {
		t.Errorf("stats = %+v, want 2 requests, 1 prefix hit", stats)
	}
	if stats.UsedBytes != 256*units.KB {
		t.Errorf("cache holds %d bytes, want the whole 256 KB object", stats.UsedBytes)
	}
}

func TestProxyAcceleratesStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("rate-limited transfer test")
	}
	// Origin limited to 256 KB/s; object 1 plays at 512 KB/s. Cold
	// fetches cannot sustain playback without delay; once the proxy has
	// cached the prefix, startup delay must drop substantially.
	_, proxyURL, _ := startStack(t, core.NewIB(), units.GBytes(1), units.KBps(256))
	url := proxyURL + "/objects/1"

	cold, err := Fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	coldDelay := cold.StartupDelay(units.KBps(512))
	if coldDelay <= 0 {
		t.Fatalf("cold startup delay = %v, want > 0 (origin at half playback rate)", coldDelay)
	}
	warm, err := Fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	warmDelay := warm.StartupDelay(units.KBps(512))
	if warmDelay >= coldDelay/2 {
		t.Errorf("warm startup delay %v, want < half of cold %v", warmDelay, coldDelay)
	}
	if want := ContentSHA256(1, 256*units.KB); warm.SHA256 != want {
		t.Error("warm fetch corrupted content")
	}
}

func TestProxyPartialCachingWithPB(t *testing.T) {
	if testing.Short() {
		t.Skip("rate-limited transfer test")
	}
	// PB policy with a passive estimator: after a cold fetch observes
	// ~256 KB/s to the origin, the policy should hold roughly the
	// bandwidth deficit of object 1 - (512-256 KB/s) * 0.5 s = 128 KB -
	// not the whole object.
	px, proxyURL, _ := startStack(t, core.NewPB(), units.GBytes(1), units.KBps(256))
	url := proxyURL + "/objects/1"
	if _, err := Fetch(url); err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(url); err != nil {
		t.Fatal(err)
	}
	stats := px.Snapshot()
	if stats.UsedBytes == 0 {
		t.Fatal("PB proxy cached nothing")
	}
	if stats.UsedBytes >= 256*units.KB {
		t.Errorf("PB proxy cached %d bytes, want a partial prefix < 256 KB", stats.UsedBytes)
	}
	if stats.EstimateBps("") <= 0 {
		t.Error("passive estimator never observed throughput")
	}
	// The estimate should be in the right ballpark of the origin rate.
	est := float64(stats.EstimateBps(""))
	if est < units.KBps(100) || est > units.KBps(600) {
		t.Errorf("estimate %v B/s implausible for a 256 KB/s path", est)
	}
}

func TestProxyConcurrentFetches(t *testing.T) {
	_, proxyURL, _ := startStack(t, core.NewIB(), units.GBytes(1), 0)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 4; i++ {
		for _, id := range []int{1, 2, 3} {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				res, err := Fetch(fmt.Sprintf("%s/objects/%d", proxyURL, id))
				if err != nil {
					errs <- err
					return
				}
				var size int64
				switch id {
				case 1:
					size = 256 * units.KB
				case 2:
					size = 128 * units.KB
				case 3:
					size = 64 * units.KB
				}
				if want := ContentSHA256(id, size); res.SHA256 != want {
					errs <- fmt.Errorf("object %d digest mismatch under concurrency", id)
				}
			}(id)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestProxyEvictionReleasesStore(t *testing.T) {
	// Cache fits only ~one object: fetching all three must keep the
	// byte store in sync with cache accounting.
	px, proxyURL, _ := startStack(t, core.NewLRU(), 260*units.KB, 0)
	for round := 0; round < 2; round++ {
		for _, id := range []int{1, 2, 3} {
			if _, err := Fetch(fmt.Sprintf("%s/objects/%d", proxyURL, id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	px.Quiesce()
	stats := px.Snapshot()
	if stats.UsedBytes > 260*units.KB {
		t.Errorf("cache accounting %d exceeds capacity", stats.UsedBytes)
	}
	if got := px.StoredTotal(); got > 260*units.KB {
		t.Errorf("byte store holds %d bytes, exceeds capacity", got)
	}
}

func TestProxyStatsEndpoint(t *testing.T) {
	_, proxyURL, _ := startStack(t, core.NewIB(), units.GBytes(1), 0)
	if _, err := Fetch(proxyURL + "/objects/2"); err != nil {
		t.Fatal(err)
	}
	res, err := Fetch(proxyURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes == 0 {
		t.Error("stats endpoint returned no body")
	}
}

func TestProxyUnknownObject(t *testing.T) {
	_, proxyURL, _ := startStack(t, core.NewIB(), units.GBytes(1), 0)
	if _, err := Fetch(proxyURL + "/objects/999"); err == nil {
		t.Error("unknown object did not error")
	}
}

func TestProxyMultiOriginPerPathEstimates(t *testing.T) {
	watch := leaktest.Start(t)
	if testing.Short() {
		t.Skip("rate-limited transfer test")
	}
	// Figure 1's scenario: two origins, one fast (unlimited) and one slow
	// (128 KB/s). The proxy must keep independent bandwidth estimates per
	// origin path and PB must cache only the slow-path object.
	fastMeta := []Meta{{ID: 1, Size: 128 * units.KB, Rate: units.KBps(512)}}
	slowMeta := []Meta{{ID: 2, Size: 128 * units.KB, Rate: units.KBps(512)}}

	fastCatalog, err := NewCatalog(fastMeta)
	if err != nil {
		t.Fatal(err)
	}
	slowCatalog, err := NewCatalog(slowMeta)
	if err != nil {
		t.Fatal(err)
	}
	fastOrigin, err := NewOrigin(fastCatalog, 0)
	if err != nil {
		t.Fatal(err)
	}
	slowOrigin, err := NewOrigin(slowCatalog, units.KBps(128))
	if err != nil {
		t.Fatal(err)
	}
	fastSrv := httptest.NewServer(fastOrigin)
	t.Cleanup(fastSrv.Close)
	slowSrv := httptest.NewServer(slowOrigin)
	t.Cleanup(slowSrv.Close)

	// One combined catalog routing each object to its origin.
	combined, err := NewCatalog([]Meta{
		{ID: 1, Size: 128 * units.KB, Rate: units.KBps(512), Origin: fastSrv.URL},
		{ID: 2, Size: 128 * units.KB, Rate: units.KBps(512), Origin: slowSrv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	px := newTestProxy(t, combined, core.NewPB(), units.GBytes(1), fastSrv.URL)
	watch(px)
	proxySrv := httpdtest.NewServer(px)
	t.Cleanup(proxySrv.Close)

	// Two rounds so the second access acts on learned estimates.
	for round := 0; round < 2; round++ {
		for _, id := range []int{1, 2} {
			res, err := Fetch(fmt.Sprintf("%s/objects/%d", proxySrv.URL, id))
			if err != nil {
				t.Fatal(err)
			}
			if want := ContentSHA256(id, 128*units.KB); res.SHA256 != want {
				t.Fatalf("round %d object %d: digest mismatch", round, id)
			}
		}
	}

	px.Quiesce()
	stats := px.Snapshot()
	fast := stats.EstimatesBps[fastSrv.URL]
	slow := stats.EstimatesBps[slowSrv.URL]
	if fast == 0 || slow == 0 {
		t.Fatalf("missing per-origin estimates: %v", stats.EstimatesBps)
	}
	if fast <= 2*slow {
		t.Errorf("fast-path estimate %d should dwarf slow-path %d", fast, slow)
	}
	// Network awareness: PB keeps a prefix only for the slow-path object.
	// (Quiesce above guarantees no handler is still mutating the cache.)
	if got := px.AccountedBytes(1); got != 0 {
		t.Errorf("fast-path object cached %d bytes, want 0 (abundant bandwidth)", got)
	}
	if got := px.AccountedBytes(2); got == 0 {
		t.Error("slow-path object not cached; PB should hold its deficit")
	}
}

func TestFetchNStopsEarly(t *testing.T) {
	// A partial-viewing session reads only its watched prefix: FetchN
	// must stop at the limit and leave the connection behind, while a
	// non-positive limit downloads everything.
	_, proxyURL, _ := startStack(t, core.NewIB(), units.GBytes(1), 0)
	partial, err := FetchN(proxyURL+"/objects/1", 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Bytes != 64*units.KB {
		t.Errorf("limited fetch read %d bytes, want %d", partial.Bytes, 64*units.KB)
	}
	full, err := FetchN(proxyURL+"/objects/1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Bytes != 256*units.KB {
		t.Errorf("unlimited fetch read %d bytes, want %d", full.Bytes, 256*units.KB)
	}
	if want := ContentSHA256(1, 256*units.KB); full.SHA256 != want {
		t.Error("unlimited FetchN digest mismatch")
	}
	// A limit beyond the object size behaves like a full download.
	over, err := FetchN(proxyURL+"/objects/1", units.GBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	if over.Bytes != 256*units.KB {
		t.Errorf("overlimit fetch read %d bytes, want %d", over.Bytes, 256*units.KB)
	}
}
