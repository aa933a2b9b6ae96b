package experiments

import (
	"math/rand"
	"sort"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/merge"
	"streamcache/internal/sim"
	"streamcache/internal/units"
	"streamcache/internal/workload"
)

// extensionStreamMergingRunner evaluates the Section 6 direction of combining
// partial caching with patching and batching at the proxy: for the
// Table 1 request trace it compares origin traffic under plain unicast,
// batching (30 s window), threshold patching (analytic optimum T* per
// object), and patching on top of PB's cached prefixes.
func extensionStreamMergingRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	w, err := s.Arena.Workload(workload.Config{
		NumObjects:  s.Objects,
		NumRequests: s.Requests,
		Seed:        s.Seed,
	})
	if err != nil {
		return nil, err
	}
	times := make([]float64, len(w.Requests))
	ids := make([]int, len(w.Requests))
	for i, r := range w.Requests {
		times[i] = r.Time
		ids[i] = r.ObjectID
	}
	byObject, err := merge.SplitByObject(times, ids)
	if err != nil {
		return nil, err
	}

	// PB's cached prefix for each object under the oracle-mean bandwidth
	// (Section 2.3 deficits), limited to the usual 5%-of-total cache via
	// the optimal placement.
	lambda := make([]float64, len(w.Objects))
	bw := make([]float64, len(w.Objects))
	counts := w.RequestCounts()
	netRNG := rand.New(rand.NewSource(s.Seed))
	model := bandwidth.NLANR()
	objs := make([]core.Object, len(w.Objects))
	for i, o := range w.Objects {
		objs[i] = core.Object{ID: o.ID, Size: o.Size, Duration: o.Duration, Rate: o.Rate, Value: o.Value}
		lambda[i] = float64(counts[i])
		bw[i] = model.Sample(netRNG)
	}
	cacheBytes := w.TotalUniqueBytes() / 20
	placement, err := core.OptimalPlacement(objs, lambda, bw, cacheBytes)
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
	// Iterate objects in sorted-ID order: the per-technique totals are
	// float sums, and float addition order must not depend on map
	// iteration order or reruns drift in the low bits.
	objIDs := make([]int, 0, len(byObject))
	for id := range byObject {
		objIDs = append(objIDs, id)
	}
	sort.Ints(objIDs)
	for _, id := range objIDs {
		ts := byObject[id]
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
		totals["batch_30s"].delay += bat.AvgAddedDelay * float64(len(ts))

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

	t := &staticTable{meta: TableMeta{
		Name:   "Extension: stream merging (batching/patching) composed with partial caching",
		Note:   "Section 6 future work; PB prefixes sized by the Section 2.3 optimum at 5% cache",
		Header: []string{"technique", "origin_GB", "savings_vs_unicast", "avg_added_delay_s"},
	}}
	for _, key := range []string{"unicast", "batch_30s", "patching", "patching+PB_cache"} {
		a := totals[key]
		delay := 0.0
		if key == "batch_30s" && len(w.Requests) > 0 {
			delay = a.delay / float64(len(w.Requests))
		}
		t.rows = append(t.rows, []string{
			key,
			f1(float64(a.origin) / float64(units.GB)),
			f3(1 - a.origin/unicastBytes),
			f1(delay),
		})
	}
	return t, nil
}

// extensionPartialViewingRunner measures how GISMO-style partial-viewing
// sessions (clients stopping early) change the traffic economics of
// prefix caching.
func extensionPartialViewingRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.Arena
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: TableMeta{
		Name:   "Extension: partial-viewing sessions (GISMO user interactivity)",
		Note:   "prefix caching gains relative effectiveness when sessions only watch the head of the stream",
		Header: []string{"partial_view_prob", "policy", "traffic_reduction", "avg_delay_s", "hit_ratio"},
	}}
	for _, prob := range []float64{0, 0.3, 0.7} {
		for _, p := range []core.Policy{core.NewIF(), core.NewPB()} {
			sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
				Workload: workload.Config{
					NumObjects:      s.Objects,
					NumRequests:     s.Requests,
					PartialViewProb: prob,
				},
				CacheBytes: int64(0.05 * float64(total)),
				Policy:     p,
				Runs:       s.Runs,
				Seed:       s.Seed,
			}, func(m sim.Metrics) []string {
				return []string{
					f3(prob), p.Name(),
					f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.HitRatio),
				}
			}))
		}
	}
	return sw, nil
}

// extensionBaselinesRunner positions the paper's network-aware policies
// against the classical replacement algorithms Section 3.3 names (LRU,
// LFU) and the GreedyDual-Size family of the authors' earlier work [17],
// under measured-path variability.
func extensionBaselinesRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.Arena
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: TableMeta{
		Name:   "Extension: classical baselines (LRU/LFU/GreedyDual-Size) vs network-aware policies",
		Note:   "measured-path variability, 5% cache; GDS-family policies are stateful and built per run",
		Header: []string{"policy", "traffic_reduction", "avg_delay_s", "avg_quality", "hit_ratio"},
	}}
	factories := []struct {
		label string
		make  func() core.Policy
	}{
		{"LRU", core.NewLRU},
		{"LFU", core.NewLFU},
		{"GDS", core.NewGDS},
		{"GDS-BW", core.NewGDSBandwidth},
		{"GDSP-BW", core.NewGDSP},
		{"IB", core.NewIB},
		{"PB", core.NewPB},
	}
	for _, f := range factories {
		sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
			Workload:      s.workload(),
			CacheBytes:    int64(0.05 * float64(total)),
			PolicyFactory: f.make,
			Variation:     bandwidth.MeasuredVariability(),
			Runs:          s.Runs,
			Seed:          s.Seed,
		}, func(m sim.Metrics) []string {
			return []string{
				f.label, f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay),
				f3(m.AvgStreamQuality), f3(m.HitRatio),
			}
		}))
	}
	return sw, nil
}

// extensionActiveProbingRunner compares the oracle estimator with the active
// Padhye-model prober at increasing measurement noise (Section 6:
// integrating active bandwidth measurement into proxy caches).
func extensionActiveProbingRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.Arena
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: TableMeta{
		Name:   "Extension: active bandwidth probing (Padhye model) vs oracle estimation",
		Note:   "PB policy under measured-path variability, 5% cache",
		Header: []string{"estimator", "traffic_reduction", "avg_delay_s", "avg_quality"},
	}}
	estimators := []struct {
		label   string
		factory sim.EstimatorFactory
	}{
		{"oracle", sim.OracleEstimator},
		{"active_probe_jitter_0.05", sim.ActiveProbeEstimator(0.05)},
		{"active_probe_jitter_0.20", sim.ActiveProbeEstimator(0.20)},
		{"active_probe_jitter_0.40", sim.ActiveProbeEstimator(0.40)},
	}
	for _, est := range estimators {
		sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
			Workload:   s.workload(),
			CacheBytes: int64(0.05 * float64(total)),
			Policy:     core.NewPB(),
			Variation:  bandwidth.MeasuredVariability(),
			Estimators: est.factory,
			Runs:       s.Runs,
			Seed:       s.Seed,
		}, func(m sim.Metrics) []string {
			return []string{
				est.label, f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.AvgStreamQuality),
			}
		}))
	}
	return sw, nil
}
