package sim

import (
	"slices"
	"testing"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/workload"
)

// TestTapeReplayBitIdentical is the tape's contract: replaying compiled
// columns is the simulation, not an approximation of it. For every
// built-in variability, every estimator factory and an aging policy,
// Run returns the same Metrics bit for bit from a shared
// arena (columns compiled once, replayed by every later call), from a
// nil arena (compiled privately per run) and at any Parallelism — and
// the values equal goldens recorded before the tape existed (PB under
// EWMA's: before the estimate column, when each path had an estimator
// object), so the tape cannot be consistently wrong either.
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
		e    Estimator
	}{
		{"oracle", nil},
		{"under", Underestimate{0.5}},
		{"ewma", EWMA{0.3}},
		{"probe", ActiveProbe{0.2}},
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
				Variation: v.v, Estimator: e.e, Runs: 2, Seed: 11,
			}})
		}
	}
	cases = append(cases,
		flatCase{name: "golden/pb-nlanr", cfg: Config{
			Workload: testWorkload(), CacheBytes: cachePct(5), Policy: core.NewPB(),
			Variation: bandwidth.NLANRVariability(), Runs: 3, Seed: 42,
		}, golden: &Metrics{Requests: 5000, TrafficReductionRatio: 0x1.4b3bbbf7206a8p-04, AvgServiceDelay: 0x1.0e91de2c30e83p+10,
			AvgStreamQuality: 0x1.cad4cd1c19044p-01, TotalAddedValue: 0x1.292f5e0515dadp+14, HitRatio: 0x1.788f1641434f9p-03, EvictedBytes: 3594095080,
			EdgeByteFrac: 0x1.4b3bbbf7206a8p-04, OriginByteFrac: 0x1.d69888811bf2bp-01}},
		flatCase{name: "golden/gds-ewma-partial", cfg: Config{
			Workload: partial, CacheBytes: cachePct(2), Policy: core.NewGDS(),
			Variation: bandwidth.MeasuredVariability(), Estimator: EWMA{0.3}, Runs: 2, Seed: 7,
		}, golden: &Metrics{Requests: 5000, TrafficReductionRatio: 0x1.50bf5db7a7845p-04, AvgServiceDelay: 0x1.59173acd52717p+10,
			AvgStreamQuality: 0x1.b6cff73e727cp-01, TotalAddedValue: 0x1.1b206133022aep+14, HitRatio: 0x1.03e425aee632p-03, EvictedBytes: 705926916473,
			EdgeByteFrac: 0x1.50bf5db7a7845p-04, OriginByteFrac: 0x1.d5e814490b0f8p-01}},
		// GDS prices nothing by bandwidth; PB's targets and utilities
		// read every EWMA price.
		flatCase{name: "golden/pb-ewma-partial", cfg: Config{
			Workload: partial, CacheBytes: cachePct(2), Policy: core.NewPB(),
			Variation: bandwidth.MeasuredVariability(), Estimator: EWMA{0.3}, Runs: 2, Seed: 7,
		}, golden: &Metrics{Requests: 5000, TrafficReductionRatio: 0x1.dfdf5de67a6a6p-05, AvgServiceDelay: 0x1.ff6c85ec5da7p+09,
			AvgStreamQuality: 0x1.c829d84c35822p-01, TotalAddedValue: 0x1.2449a944f4582p+14, HitRatio: 0x1.e5604189374bcp-04, EvictedBytes: 10001280262,
			EdgeByteFrac: 0x1.dfdf5de67a6a6p-05, OriginByteFrac: 0x1.e2020a2198596p-01}},
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
		golden Metrics
	}{
		{"1x1", HierarchyConfig{Config: base, Edges: 1, Levels: 1},
			Metrics{Requests: 5000, TrafficReductionRatio: 0x1.17cfc135be294p-04, EdgeByteFrac: 0x1.17cfc135be294p-04,
				OriginByteFrac: 0x1.dd0607d9483aep-01}},
		{"4x1 owner-peered", HierarchyConfig{Config: base, Edges: 4, Levels: 1, Peering: PeeringOwner},
			Metrics{Requests: 5000, TrafficReductionRatio: 0x1.06676d6c1f5d5p-04, EdgeByteFrac: 0x1.fbc971d729ff1p-06,
				PeerByteFrac: 0x1.0eea21eca9bb1p-05, OriginByteFrac: 0x1.df3312527c146p-01}},
		{"4x2", HierarchyConfig{Config: base, Edges: 4, Levels: 2, ParentFraction: 0.4, Peering: PeeringOwner},
			Metrics{Requests: 5000, TrafficReductionRatio: 0x1.ee92301033c46p-05, EdgeByteFrac: 0x1.b85d8f97c8117p-06,
				PeerByteFrac: 0x1.6d205d1770d87p-06, ParentByteFrac: 0x1.6f4ce6e25d3dbp-07, OriginByteFrac: 0x1.e116dcfefcc3cp-01}},
	}
	for _, h := range hierarchies { // 1x1 through the cluster loop, which the goldens recorded
		private, err := runTopology(t, h.cfg)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if private != h.golden {
			t.Errorf("hierarchy %s: metrics moved from the pre-tape goldens:\n%+v\nwant\n%+v", h.name, private, h.golden)
		}
		for _, par := range []int{1, 2, 8} {
			cfg := h.cfg
			cfg.Arena, cfg.Parallelism = shared, par
			got, err := runTopology(t, cfg)
			if err != nil {
				t.Fatalf("%s: %v", h.name, err)
			}
			if got != private {
				t.Errorf("hierarchy %s: shared arena at Parallelism=%d changed metrics:\n%+v\nwant\n%+v", h.name, par, got, private)
			}
		}
	}
}

// TestCompileTapeMatchesGenerate holds the streamed compile to the rule
// it replaced, which flattened workload.Generate's requests: each
// request's object and arrival time, and watched = the object's size
// unless 0 < Fraction < 1, where it is Fraction of the size. A tape has
// a watched column (one entry per request) exactly when some session
// stops early; the sparse case's first one comes well into the trace.
func TestCompileTapeMatchesGenerate(t *testing.T) {
	for _, prob := range []float64{0, 0.4, 0.001} {
		for seed := range int64(4) {
			cfg := testWorkload()
			cfg.PartialViewProb, cfg.Seed = prob, seed
			cfg, err := cfg.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			wl, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tp, err := compileTape(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tp.objs, wl.Objects) {
				t.Fatalf("prob=%v seed=%d: the tape's catalog differs from Generate's", prob, seed)
			}
			n := len(wl.Requests)
			if len(tp.obj) != n || len(tp.time) != n {
				t.Fatalf("prob=%v seed=%d: %d/%d obj/time entries, want %d", prob, seed, len(tp.obj), len(tp.time), n)
			}
			partial := false
			for i, r := range wl.Requests {
				size := wl.Objects[r.ObjectID].Size
				watched := size
				if r.Fraction > 0 && r.Fraction < 1 {
					watched, partial = int64(r.Fraction*float64(size)), true
				}
				if int(tp.obj[i]) != r.ObjectID || tp.time[i] != r.Time || tp.watchedAt(i, size) != watched {
					t.Fatalf("prob=%v seed=%d: request %d compiled to (%d, %v, %d), want (%d, %v, %d)",
						prob, seed, i, tp.obj[i], tp.time[i], tp.watchedAt(i, size), r.ObjectID, r.Time, watched)
				}
			}
			switch {
			case !partial && tp.watched != nil:
				t.Errorf("prob=%v seed=%d: a full-view tape has a watched column", prob, seed)
			case partial && len(tp.watched) != n:
				t.Errorf("prob=%v seed=%d: a partial-view tape has %d watched entries, want %d", prob, seed, len(tp.watched), n)
			}
			if partial != (prob > 0) {
				t.Errorf("prob=%v seed=%d: partial viewers=%v", prob, seed, partial)
			}
		}
	}
}

// BenchmarkCompileTape compiles one paper tape (Table 1: 5000 objects,
// 100 000 requests) with every session watching to the end, and with
// ext-partial-viewing's lower partial-viewing probability. col-B/req
// is the bytes of request columns the tape keeps: 12 (object index and
// arrival time) on a full-view tape, 20 with the watched column. B/op
// adds the catalog.
func BenchmarkCompileTape(b *testing.B) {
	for _, c := range []struct {
		name string
		prob float64
	}{{"full", 0}, {"partial", 0.3}} {
		cfg := paperWorkload()
		cfg.PartialViewProb = c.prob
		cfg, err := cfg.Normalize()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var tp *tape
			for b.Loop() {
				if tp, err = compileTape(cfg); err != nil {
					b.Fatal(err)
				}
			}
			cols := 4*cap(tp.obj) + 8*cap(tp.time) + 8*cap(tp.watched)
			b.ReportMetric(float64(cols)/float64(len(tp.obj)), "col-B/req")
		})
	}
}
