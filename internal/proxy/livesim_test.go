package proxy_test

import (
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"streamcache/internal/core"
	"streamcache/internal/httpd/httpdtest"
	"streamcache/internal/leaktest"
	"streamcache/internal/proxy"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

// liveCatalog converts a generated workload's objects into a proxy
// catalog with identical IDs, sizes and rates, so the live tier serves
// exactly the object population the simulator models.
func liveCatalog(t *testing.T, wl *workload.Workload) *proxy.Catalog {
	t.Helper()
	metas := make([]proxy.Meta, len(wl.Objects))
	for i, o := range wl.Objects {
		metas[i] = proxy.Meta{ID: o.ID, Size: o.Size, Rate: o.Rate, Duration: o.Duration, Value: o.Value}
	}
	c, err := proxy.NewCatalog(metas)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLiveHitRatioMatchesSimulator is the live-vs-simulated measurement
// seam: replaying one Table 1-style trace through a running sharded
// proxy must reproduce the simulator's bandwidth-weighted hit ratio
// (the traffic reduction ratio) for the same (policy, cache-fraction)
// point within 10%. LRU keeps the comparison exact in expectation: its
// placement ignores bandwidth estimates, so live wall-clock timing and
// the simulator's logical clock produce the same eviction order for a
// sequential replay.
func TestLiveHitRatioMatchesSimulator(t *testing.T) {
	const baseSeed = 7
	// Tiny CBR objects (16 B/s) keep the replay to a few MB of local
	// HTTP traffic while preserving the lognormal size spread.
	wcfg := workload.Config{
		NumObjects:    60,
		NumRequests:   400,
		BytesPerFrame: 16,
		FramesPerSec:  1,
	}

	// The simulator derives run 0's workload seed from the base seed;
	// the live replay must follow the same trace.
	runCfg := wcfg
	runCfg.Seed = sim.SplitSeed(baseSeed, 0)
	wl, err := workload.Generate(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	catalog := liveCatalog(t, wl)
	cacheBytes := wl.TotalUniqueBytes() / 4
	warm := len(wl.Requests) / 2

	simCfg := sim.Config{
		Workload:   wcfg,
		CacheBytes: cacheBytes,
		Policy:     core.NewLRU(),
		Runs:       1,
		Seed:       baseSeed,
	}
	predicted, err := sim.Run(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	if predicted.TrafficReductionRatio <= 0 || predicted.TrafficReductionRatio >= 1 {
		t.Fatalf("degenerate simulator prediction %v; pick a different config", predicted.TrafficReductionRatio)
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			watch := leaktest.Start(t)
			origin, err := proxy.NewOrigin(catalog, 0)
			if err != nil {
				t.Fatal(err)
			}
			originSrv := httptest.NewServer(origin)
			defer originSrv.Close()
			px, err := proxy.New(proxy.Config{
				Catalog:    catalog,
				OriginURL:  originSrv.URL,
				Shards:     shards,
				CacheBytes: cacheBytes,
				NewPolicy:  core.NewLRU,
			})
			if err != nil {
				t.Fatal(err)
			}
			watch(px)
			proxySrv := httpdtest.NewServer(px)
			defer proxySrv.Close()

			// Closed-loop sequential replay of the simulator's trace,
			// measuring the paper's bandwidth-weighted hit ratio over
			// the post-warmup half.
			var cacheBytesServed, totalBytes float64
			for i, req := range wl.Requests {
				res, err := proxy.Fetch(fmt.Sprintf("%s/objects/%d", proxySrv.URL, req.ObjectID))
				if err != nil {
					t.Fatalf("request %d (object %d): %v", i, req.ObjectID, err)
				}
				if i < warm {
					continue
				}
				size := wl.Objects[req.ObjectID].Size
				hit := res.HitBytes()
				if hit > size {
					hit = size
				}
				cacheBytesServed += float64(hit)
				totalBytes += float64(size)
			}
			live := cacheBytesServed / totalBytes

			// A single shard replays the simulator's exact cache; more
			// shards partition capacity by ID hash, which perturbs
			// evictions slightly but must stay within the paper-point
			// tolerance.
			tolerance := 0.10
			if shards == 1 {
				tolerance = 0.02
			}
			if diff := math.Abs(live-predicted.TrafficReductionRatio) / predicted.TrafficReductionRatio; diff > tolerance {
				t.Errorf("live bandwidth-weighted hit ratio %.4f vs simulated %.4f (relative diff %.1f%%, tolerance %.0f%%)",
					live, predicted.TrafficReductionRatio, diff*100, tolerance*100)
			} else {
				t.Logf("live %.4f vs simulated %.4f (relative diff %.2f%%)",
					live, predicted.TrafficReductionRatio, diff*100)
			}
		})
	}
}
