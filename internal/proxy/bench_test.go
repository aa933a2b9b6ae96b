package proxy

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"streamcache/internal/core"
	"streamcache/internal/units"
)

// BenchmarkProxyServe measures in-process proxy throughput on the
// warmed hot path (prefix hits) across the shard axis. shards=1 is the
// serialized baseline — every request crosses the same lock, as the
// pre-sharding proxy did — and on a GOMAXPROCS>=8 machine the 1→8
// curve is the concurrency win of the sharded tier. Request paths are
// precomputed and each goroutine reuses one discarding writer (reset
// between iterations), so the loop measures the serve path, not
// fmt.Sprintf and recorder construction.
func BenchmarkProxyServe(b *testing.B) {
	const nObjects = 64
	const objBytes = 32 * units.KB
	metas := make([]Meta, nObjects)
	for i := range metas {
		metas[i] = Meta{ID: i, Size: objBytes, Rate: units.KBps(512), Value: 1}
	}
	catalog, err := NewCatalog(metas)
	if err != nil {
		b.Fatal(err)
	}
	origin, err := NewOrigin(catalog, 0)
	if err != nil {
		b.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	reqs := make([]*http.Request, nObjects)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/objects/%d", i), nil)
	}

	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			px, err := New(Config{
				Catalog:    catalog,
				OriginURL:  originSrv.URL,
				Shards:     shards,
				CacheBytes: units.GBytes(1),
				NewPolicy:  core.NewIB,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm every object so the measured loop is pure prefix
			// hits (cache-client speed, no origin traffic).
			warm := &nullResponseWriter{h: make(http.Header)}
			for i, req := range reqs {
				warm.n = 0
				px.ServeHTTP(warm, req)
				if warm.n != objBytes {
					b.Fatalf("warmup object %d: %d bytes", i, warm.n)
				}
			}
			px.Quiesce()

			var next atomic.Int64
			b.ReportAllocs()
			b.SetBytes(objBytes)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := &nullResponseWriter{h: make(http.Header)}
				for pb.Next() {
					id := int(next.Add(1)) % nObjects
					w.n = 0
					px.ServeHTTP(w, reqs[id])
					if w.n != objBytes {
						b.Fatalf("object %d: short response %d", id, w.n)
					}
				}
			})
		})
	}
}

// BenchmarkRelayCoalesce measures the relay data plane: a fetch
// publishes a 1 MiB remainder through the ring while N attached readers
// drain it concurrently — the thundering-herd shape the relay
// singleflight exists for. A reader the ring laps jumps forward to the
// live window instead of failing (in production it would demote to a
// private relay); laps/op reports how often that happened.
func BenchmarkRelayCoalesce(b *testing.B) {
	const objBytes = 1 << 20
	data := Content(1, 0, objBytes)
	for _, readers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			var laps atomic.Int64
			b.ReportAllocs()
			b.SetBytes(objBytes)
			b.ResetTimer()
			for range b.N {
				rl := newRelay(0, objBytes, 0, nil)
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					if !rl.attach() {
						b.Fatal("attach refused")
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						off, err := drain(rl, 0, data, nil)
						for ; err == errRelayLapped; laps.Add(1) {
							off, err = drain(rl, max(off, rl.tailOffset()), data, nil)
						}
						rl.detach(nil)
						if err != nil {
							b.Errorf("reader stopped at %d: %v", off, err)
						}
					}()
				}
				_, _, err := pump(&pieces{data, 16 * 1024}, nil, 1, rl)
				rl.finish(err)
				wg.Wait()
			}
			b.ReportMetric(float64(laps.Load())/float64(b.N), "laps/op")
		})
	}
}
