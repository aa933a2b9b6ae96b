package sim

import (
	"testing"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
)

// TestTapeReplayBitIdentical is the tape's contract: replaying compiled
// columns is the simulation, not an approximation of it. For every
// built-in variability, every estimator factory and an aging policy,
// Run returns the same Metrics bit for bit from a shared
// arena (columns compiled once, replayed by every later call), from a
// nil arena (compiled privately per run) and at any Parallelism — and
// the values equal goldens recorded before the tape existed, so the
// tape cannot be consistently wrong either.
func TestTapeReplayBitIdentical(t *testing.T) {
	sigma, err := bandwidth.NewLognormalRatio(0.4) // a Scale.sigmas() level
	if err != nil {
		t.Fatal(err)
	}
	partial := testWorkload()
	partial.PartialViewProb = 0.4

	variabilities := []struct {
		name string
		v    bandwidth.Variability
	}{
		{"none", nil},
		{"nlanr", bandwidth.NLANRVariability()},
		{"measured", bandwidth.MeasuredVariability()},
		{"inria", bandwidth.INRIAVariability()},
		{"fareast", bandwidth.FarEastVariability()},
		{"sigma", sigma},
	}
	estimators := []struct {
		name string
		f    EstimatorFactory
	}{
		{"oracle", nil},
		{"under", UnderestimatingOracle(0.5)},
		{"ewma", EWMAEstimator(0.3)},
		{"probe", ActiveProbeEstimator(0.2)},
	}
	type flatCase struct {
		name   string
		cfg    Config
		golden *Metrics
	}
	var cases []flatCase
	for _, v := range variabilities {
		for _, e := range estimators {
			cases = append(cases, flatCase{name: v.name + "/" + e.name, cfg: Config{
				Workload: partial, CacheBytes: cachePct(5), Policy: core.NewPB(),
				Variation: v.v, Estimators: e.f, Runs: 2, Seed: 11,
			}})
		}
	}
	cases = append(cases,
		flatCase{name: "golden/pb-nlanr", cfg: Config{
			Workload: testWorkload(), CacheBytes: cachePct(5), Policy: core.NewPB(),
			Variation: bandwidth.NLANRVariability(), Runs: 3, Seed: 42,
		}, golden: &Metrics{Requests: 5000, TrafficReductionRatio: 0x1.4b3bbbf7206a8p-04, AvgServiceDelay: 0x1.0e91de2c30e83p+10,
			AvgStreamQuality: 0x1.cad4cd1c19044p-01, TotalAddedValue: 0x1.292f5e0515dadp+14, HitRatio: 0x1.788f1641434f9p-03, EvictedBytes: 3594095080}},
		flatCase{name: "golden/gds-ewma-partial", cfg: Config{
			Workload: partial, CacheBytes: cachePct(2), Policy: core.NewGDS(),
			Variation: bandwidth.MeasuredVariability(), Estimators: EWMAEstimator(0.3), Runs: 2, Seed: 7,
		}, golden: &Metrics{Requests: 5000, TrafficReductionRatio: 0x1.50bf5db7a7845p-04, AvgServiceDelay: 0x1.59173acd52717p+10,
			AvgStreamQuality: 0x1.b6cff73e727cp-01, TotalAddedValue: 0x1.1b206133022aep+14, HitRatio: 0x1.03e425aee632p-03, EvictedBytes: 705926916473}},
	)

	shared := NewArena()
	for _, c := range cases {
		private, err := Run(c.cfg) // nil arena
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.golden != nil && private != *c.golden {
			t.Errorf("%s: metrics moved from the pre-tape goldens:\n%+v\nwant\n%+v", c.name, private, *c.golden)
		}
		for _, par := range []int{1, 2, 8} {
			cfg := c.cfg
			cfg.Arena, cfg.Parallelism = shared, par
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got != private {
				t.Errorf("%s: shared arena at Parallelism=%d changed metrics:\n%+v\nwant\n%+v", c.name, par, got, private)
			}
		}
	}

	base := Config{Workload: partial, CacheBytes: cachePct(2), Policy: core.NewPB(), Runs: 2, Seed: 42}
	hierarchies := []struct {
		name   string
		cfg    HierarchyConfig
		golden HierarchyMetrics
	}{
		{"1x1", HierarchyConfig{Config: base, Edges: 1, Levels: 1},
			HierarchyMetrics{Requests: 5000, TrafficReductionRatio: 0x1.17cfc135be294p-04, EdgeByteFrac: 0x1.17cfc135be294p-04,
				OriginByteFrac: 0x1.dd0607d9483aep-01}},
		{"4x1 owner-peered", HierarchyConfig{Config: base, Edges: 4, Levels: 1, Peering: PeeringOwner, PeerBps: 40 << 10},
			HierarchyMetrics{Requests: 5000, TrafficReductionRatio: 0x1.23e3545b91b88p-04, EdgeByteFrac: 0x1.cea4d60501baep-06,
				PeerByteFrac: 0x1.60743db4a2938p-05, OriginByteFrac: 0x1.db8395748dc8fp-01}},
		{"4x2", HierarchyConfig{Config: base, Edges: 4, Levels: 2, ParentFraction: 0.4, Peering: PeeringOwner, PeerBps: 40 << 10, ParentBps: 30 << 10},
			HierarchyMetrics{Requests: 5000, TrafficReductionRatio: 0x1.09811e3f3cdf8p-03, EdgeByteFrac: 0x1.1e3a0db6f1db2p-05,
				PeerByteFrac: 0x1.31e810c163b2ep-04, ParentByteFrac: 0x1.47f493867479fp-06, OriginByteFrac: 0x1.bd9fb87030c82p-01}},
	}
	for _, h := range hierarchies {
		private, err := RunHierarchy(h.cfg)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if private != h.golden {
			t.Errorf("hierarchy %s: metrics moved from the pre-tape goldens:\n%+v\nwant\n%+v", h.name, private, h.golden)
		}
		for _, par := range []int{1, 2, 8} {
			cfg := h.cfg
			cfg.Arena, cfg.Parallelism = shared, par
			got, err := RunHierarchy(cfg)
			if err != nil {
				t.Fatalf("%s: %v", h.name, err)
			}
			if got != private {
				t.Errorf("hierarchy %s: shared arena at Parallelism=%d changed metrics:\n%+v\nwant\n%+v", h.name, par, got, private)
			}
		}
	}
}
