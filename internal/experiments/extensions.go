package experiments

import (
	"math/rand"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/merge"
	"streamcache/internal/sim"
	"streamcache/internal/units"
)

// extensionStreamMerging evaluates the Section 6 direction of combining
// partial caching with patching and batching at the proxy: for the
// Table 1 request trace it compares origin traffic under plain unicast,
// batching (30 s window), threshold patching (analytic optimum T* per
// object), and patching on top of PB's cached prefixes.
func extensionStreamMerging(s Scale) (*plan, error) {
	w, err := s.traceWorkload()
	if err != nil {
		return nil, err
	}
	// Each object's request times, in trace order.
	byObject := make([][]float64, len(w.Objects))
	for _, r := range w.Requests {
		byObject[r.ObjectID] = append(byObject[r.ObjectID], r.Time)
	}

	// PB's cached prefix for each object under the oracle-mean bandwidth
	// (Section 2.3 deficits), limited to the usual 5%-of-total cache via
	// the optimal placement.
	lambda := make([]float64, len(w.Objects))
	bw := make([]float64, len(w.Objects))
	counts := w.RequestCounts()
	netRNG := rand.New(rand.NewSource(s.Seed))
	model := bandwidth.NLANR()
	for i := range w.Objects {
		lambda[i] = float64(counts[i])
		bw[i] = model.Sample(netRNG)
	}
	cacheBytes := w.TotalUniqueBytes() / 20
	placement, err := core.OptimalPlacement(w.Objects, lambda, bw, cacheBytes)
	if err != nil {
		return nil, err
	}

	span := w.Span()
	type agg struct {
		origin float64
		delay  float64
	}
	totals := map[string]*agg{
		"unicast": {}, "batch_30s": {}, "patching": {}, "patching+PB_cache": {},
	}
	var unicastBytes float64
	for id, ts := range byObject {
		if len(ts) == 0 {
			continue
		}
		o := w.Objects[id]
		obj := merge.Object{Size: o.Size, Rate: o.Rate}
		uni, err := merge.Unicast(ts, obj)
		if err != nil {
			return nil, err
		}
		totals["unicast"].origin += uni.OriginBytes
		unicastBytes += uni.UnicastBytes(obj)

		bat, err := merge.Batch(ts, obj, 30)
		if err != nil {
			return nil, err
		}
		totals["batch_30s"].origin += bat.OriginBytes
		totals["batch_30s"].delay += float64(bat.AvgAddedDelay * float64(len(ts)))

		objLambda := float64(len(ts)) / span
		tStar, err := merge.OptimalPatchThreshold(objLambda, obj)
		if err != nil {
			return nil, err
		}
		pat, err := merge.Patch(ts, obj, tStar, 0)
		if err != nil {
			return nil, err
		}
		totals["patching"].origin += pat.OriginBytes

		patCached, err := merge.Patch(ts, obj, tStar, placement[id])
		if err != nil {
			return nil, err
		}
		totals["patching+PB_cache"].origin += patCached.OriginBytes
	}

	var rows [][]string
	for _, key := range []string{"unicast", "batch_30s", "patching", "patching+PB_cache"} {
		a := totals[key]
		delay := 0.0
		if key == "batch_30s" && len(w.Requests) > 0 {
			delay = a.delay / float64(len(w.Requests))
		}
		rows = append(rows, []string{
			key,
			f1(float64(a.origin) / float64(units.GB)),
			f3(1 - a.origin/unicastBytes),
			f1(delay),
		})
	}
	return staticPlan(TableMeta{
		Name:   "Extension: stream merging (batching/patching) composed with partial caching",
		Note:   "Section 6 future work; PB prefixes sized by the Section 2.3 optimum at 5% cache",
		Header: []string{"technique", "origin_GB", "savings_vs_unicast", "avg_added_delay_s"},
	}, rows), nil
}

// extensionPartialViewing measures how GISMO-style partial-viewing
// sessions (clients stopping early) change the traffic economics of
// prefix caching.
var extensionPartialViewing = spec{
	name: "Extension: partial-viewing sessions (GISMO user interactivity)",
	note: "prefix caching gains relative effectiveness when sessions only watch the head of the stream",
	axes: []axisFn{
		func(Scale) axis {
			return axis{cols: []string{"partial_view_prob"}, values: []float64{0, 0.3, 0.7}, at: func(prob float64) (level, error) {
				return opt(f3(prob), func(pt *point) { pt.Workload.PartialViewProb = prob }), nil
			}}
		},
		policyAxis(core.NewIF(), core.NewPB()), fivePercentCache,
	},
	metrics: []string{"traffic_reduction", "avg_delay_s", "hit_ratio"},
}

// extensionBaselines positions the paper's network-aware policies
// against the classical replacement algorithms Section 3.3 names (LRU,
// LFU) and the GreedyDual-Size family of the authors' earlier work [17],
// under measured-path variability.
var extensionBaselines = spec{
	name: "Extension: classical baselines (LRU/LFU/GreedyDual-Size) vs network-aware policies",
	// The note's bytes are pinned by the goldens; GreedyDual's L is still
	// per run, kept by each run's cache.
	note: "measured-path variability, 5% cache; GDS-family policies are stateful and built per run",
	axes: []axisFn{
		policyAxis(core.NewLRU(), core.NewLFU(), core.NewGDS(), core.NewGDSBandwidth(), core.NewGDSP(), core.NewIB(), core.NewPB()),
		fivePercentCache, variation(bandwidth.MeasuredVariability()),
	},
	metrics: []string{"traffic_reduction", "avg_delay_s", "avg_quality", "hit_ratio"},
}

// extensionActiveProbing compares the oracle estimator with the active
// Padhye-model prober at increasing measurement noise (Section 6:
// integrating active bandwidth measurement into proxy caches).
var extensionActiveProbing = spec{
	name: "Extension: active bandwidth probing (Padhye model) vs oracle estimation",
	note: "PB policy under measured-path variability, 5% cache",
	axes: []axisFn{
		choice("estimator",
			estimator("oracle", nil),
			estimator("active_probe_jitter_0.05", sim.ActiveProbe{Jitter: 0.05}),
			estimator("active_probe_jitter_0.20", sim.ActiveProbe{Jitter: 0.20}),
			estimator("active_probe_jitter_0.40", sim.ActiveProbe{Jitter: 0.40})),
		pbPolicy, fivePercentCache, variation(bandwidth.MeasuredVariability()),
	},
	metrics: delayMetrics,
}
