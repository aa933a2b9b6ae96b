// Cross-validation of the live cluster against the simulator: the sim
// predicts, the cluster measures, and the two must agree. This file is
// an external test package because it imports internal/sim, which
// itself imports internal/cluster for ring placement.
package cluster_test

import (
	"math"
	"testing"

	"streamcache/internal/cluster"
	"streamcache/internal/core"
	"streamcache/internal/proxy"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

// liveWorkloadConfig is the shared trace both sides replay: small
// objects (16 B/s CBR) so a few hundred live HTTP fetches stay cheap,
// but the same Zipf popularity and lognormal durations as Table 1.
func liveWorkloadConfig() workload.Config {
	return workload.Config{
		NumObjects:    60,
		NumRequests:   400,
		BytesPerFrame: 16,
		FramesPerSec:  1,
	}
}

// generateLiveTrace replays what sim.Run's run 0 will generate: the
// engine derives run r's workload seed as SplitSeed(Seed, r), so the
// live side must generate from the same derived seed to see the same
// trace.
func generateLiveTrace(t *testing.T, baseSeed int64) (*workload.Workload, *proxy.Catalog) {
	t.Helper()
	gen := liveWorkloadConfig()
	gen.Seed = sim.SplitSeed(baseSeed, 0)
	wl, err := workload.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]proxy.Meta, len(wl.Objects))
	for i, o := range wl.Objects {
		metas[i] = proxy.Meta{ID: o.ID, Size: o.Size, Rate: o.Rate, Duration: o.Duration, Value: o.Value}
	}
	cat, err := proxy.NewCatalog(metas)
	if err != nil {
		t.Fatal(err)
	}
	return wl, cat
}

// TestClusterHitRatioMatchesSimulator is the sim-vs-live contract:
//
//   - A 1-node live cluster replaying the simulator's exact trace must
//     reproduce sim.Run's traffic reduction ratio EXACTLY (float
//     equality, no tolerance). Under LRU the policy ignores bandwidth,
//     so every cache decision is a pure function of the access
//     sequence — any drift means the proxy's serve path and the
//     simulator's cache model have diverged.
//   - A 2-tier, 2-edge peered cluster must land within 10% of
//     sim.RunHierarchy: the hierarchy model approximates ranged-relay
//     gap handling, so the bound is a tolerance, not equality.
func TestClusterHitRatioMatchesSimulator(t *testing.T) {
	const baseSeed = 7
	wl, cat := generateLiveTrace(t, baseSeed)
	cacheBytes := wl.TotalUniqueBytes() / 4
	warm := int(0.5 * float64(len(wl.Requests)))

	t.Run("flat-1node-exact", func(t *testing.T) {
		predicted, err := sim.Run(sim.Config{
			Workload:   liveWorkloadConfig(),
			CacheBytes: cacheBytes,
			Policy:     core.NewLRU(),
			Runs:       1,
			Seed:       baseSeed,
		})
		if err != nil {
			t.Fatal(err)
		}

		tc := cluster.NewWatchedCluster(t, cluster.TestClusterConfig{
			Edges:          1,
			Catalog:        cat,
			EdgeCacheBytes: cacheBytes,
			NewPolicy:      core.NewLRU,
		})

		// Sequential replay with a quiesce per request: each access must
		// observe the fully reconciled store state the simulator's
		// synchronous cache model assumes. The accumulation mirrors
		// sim.replayColumns operation for operation (same float64 conversions,
		// same order) so equal inputs produce bitwise-equal ratios.
		var cacheSum, totalSum float64
		var hits, measured int
		for i := range wl.Requests {
			req := &wl.Requests[i]
			obj := &wl.Objects[req.ObjectID]
			res, err := tc.FetchVerified(0, req.ObjectID)
			if err != nil {
				t.Fatalf("request %d (object %d): %v", i, req.ObjectID, err)
			}
			tc.Quiesce()
			if i < warm {
				continue
			}
			measured++
			watched := obj.Size
			served := res.HitBytes()
			if served > watched {
				served = watched
			}
			cacheSum += float64(served)
			totalSum += float64(watched)
			if res.HitBytes() > 0 {
				hits++
			}
		}
		if measured != predicted.Requests {
			t.Fatalf("live measured %d requests, sim measured %d", measured, predicted.Requests)
		}
		liveTRR := cacheSum / totalSum
		if liveTRR != predicted.TrafficReductionRatio {
			t.Errorf("live TRR %v != sim TRR %v (must be exact: same trace, same LRU decisions)",
				liveTRR, predicted.TrafficReductionRatio)
		}
		liveHit := float64(hits) / float64(measured)
		if liveHit != predicted.HitRatio {
			t.Errorf("live hit ratio %v != sim hit ratio %v", liveHit, predicted.HitRatio)
		}
		if liveTRR <= 0 || liveTRR >= 1 {
			t.Errorf("degenerate live TRR %v: the trace exercises neither hits nor misses", liveTRR)
		}
	})

	t.Run("hierarchy-2tier-tolerance", func(t *testing.T) {
		const parentFraction = 0.5
		want, err := sim.RunHierarchy(sim.HierarchyConfig{
			Config: sim.Config{
				Workload:   liveWorkloadConfig(),
				CacheBytes: cacheBytes,
				Policy:     core.NewLRU(),
				Runs:       1,
				Seed:       baseSeed,
			},
			Edges:          2,
			Levels:         2,
			ParentFraction: parentFraction,
			Peering:        sim.PeeringOwner,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want.TrafficReductionRatio <= 0 {
			t.Fatalf("sim predicts TRR %v; the tolerance check needs a nonzero baseline", want.TrafficReductionRatio)
		}

		// Identical capacity split to hierarchyRunOnce: the parent takes
		// its fraction off the top, the edges split the rest.
		parentBytes := int64(parentFraction * float64(cacheBytes))
		tc := cluster.NewWatchedCluster(t, cluster.TestClusterConfig{
			Edges:            2,
			WithParent:       true,
			Catalog:          cat,
			EdgeCacheBytes:   cacheBytes - parentBytes,
			ParentCacheBytes: parentBytes,
			NewPolicy:        core.NewLRU,
		})

		// Request i goes to edge i%2 — the simulator's assignment and
		// cmd/loadgen's round-robin. The live TRR is measured where the
		// paper measures it: bytes crossing the origin link during the
		// measurement phase versus bytes clients watched.
		var originStart, totB int64
		for i := range wl.Requests {
			req := &wl.Requests[i]
			if i == warm {
				originStart = tc.OriginBytes() // prior request already quiesced
			}
			if _, err := tc.FetchVerified(i%2, req.ObjectID); err != nil {
				t.Fatalf("request %d (object %d, edge %d): %v", i, req.ObjectID, i%2, err)
			}
			tc.Quiesce()
			if i >= warm {
				totB += wl.Objects[req.ObjectID].Size
			}
		}
		originDelta := tc.OriginBytes() - originStart
		liveTRR := 1 - float64(originDelta)/float64(totB)
		rel := math.Abs(liveTRR-want.TrafficReductionRatio) / want.TrafficReductionRatio
		if rel > 0.10 {
			t.Errorf("live 2-tier TRR %v vs sim %v: relative difference %.3f exceeds 10%%",
				liveTRR, want.TrafficReductionRatio, rel)
		}
	})
}
