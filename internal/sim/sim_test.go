package sim

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/units"
	"streamcache/internal/workload"
)

// testWorkload is a scaled-down Table 1 workload (~79 GB unique bytes)
// that keeps the unit tests fast while preserving the Zipf/Poisson/
// Lognormal structure.
func testWorkload() workload.Config {
	return workload.Config{NumObjects: 500, NumRequests: 10000}
}

// cachePct returns a cache size that is the given percentage of the
// expected unique-object volume of testWorkload (~79 GB).
func cachePct(pct float64) int64 {
	return int64(pct / 100 * 79 * float64(units.GB))
}

func runWith(t *testing.T, policy core.Policy, variation bandwidth.Variability, cacheBytes int64) Metrics {
	t.Helper()
	m, err := Run(Config{
		Workload:   testWorkload(),
		CacheBytes: cacheBytes,
		Policy:     policy,
		Variation:  variation,
		Runs:       2,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunValidation(t *testing.T) {
	base := Config{Workload: testWorkload(), CacheBytes: 1, Policy: core.NewIF()}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "negative cache", mutate: func(c *Config) { c.CacheBytes = -1 }},
		{name: "nil policy", mutate: func(c *Config) { c.Policy = nil }},
		{name: "negative runs", mutate: func(c *Config) { c.Runs = -2 }},
		{name: "bad workload", mutate: func(c *Config) { c.Workload.NumObjects = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(2),
		Policy:     core.NewPB(),
		Runs:       2,
		Seed:       7,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different metrics:\n%+v\n%+v", a, b)
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	cfg := Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(2),
		Policy:     core.NewPB(),
		Seed:       1,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different seeds produced identical metrics")
	}
}

func TestMetricsInValidRanges(t *testing.T) {
	for _, p := range []core.Policy{core.NewIF(), core.NewPB(), core.NewIB(), core.NewPBV(), core.NewIBV(), core.NewLRU()} {
		m := runWith(t, p, bandwidth.NLANRVariability(), cachePct(5))
		if m.TrafficReductionRatio < 0 || m.TrafficReductionRatio > 1 {
			t.Errorf("%s: traffic reduction %v outside [0,1]", p.Name(), m.TrafficReductionRatio)
		}
		if m.AvgStreamQuality < 0 || m.AvgStreamQuality > 1 {
			t.Errorf("%s: quality %v outside [0,1]", p.Name(), m.AvgStreamQuality)
		}
		if m.HitRatio < 0 || m.HitRatio > 1 {
			t.Errorf("%s: hit ratio %v outside [0,1]", p.Name(), m.HitRatio)
		}
		if m.AvgServiceDelay < 0 || math.IsNaN(m.AvgServiceDelay) {
			t.Errorf("%s: delay %v invalid", p.Name(), m.AvgServiceDelay)
		}
		if m.TotalAddedValue < 0 {
			t.Errorf("%s: value %v negative", p.Name(), m.TotalAddedValue)
		}
		if m.Requests != 5000 {
			t.Errorf("%s: measured requests %d, want 5000 (half of workload)", p.Name(), m.Requests)
		}
	}
}

func TestZeroCapacityBaseline(t *testing.T) {
	m := runWith(t, core.NewIF(), bandwidth.NoVariation{}, 0)
	if m.TrafficReductionRatio != 0 || m.HitRatio != 0 {
		t.Errorf("zero cache: traffic=%v hits=%v, want 0", m.TrafficReductionRatio, m.HitRatio)
	}
	// Even without caching some requests are served immediately
	// (abundant-bandwidth paths), so value must be positive.
	if m.TotalAddedValue <= 0 {
		t.Errorf("zero cache: value %v, want > 0 (free value from fast paths)", m.TotalAddedValue)
	}
	if m.AvgServiceDelay <= 0 {
		t.Errorf("zero cache: delay %v, want > 0", m.AvgServiceDelay)
	}
}

// TestWarmFractionControlsMeasurement: the first half of every trace
// warms the cache (Section 4.1), flat or hierarchy, so the metrics
// measure the second half.
func TestWarmFractionControlsMeasurement(t *testing.T) {
	cfg := HierarchyConfig{Config: Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(2),
		Policy:     core.NewIF(),
		Seed:       3,
	}}
	for _, levels := range []int{0, 1} {
		cfg.Levels = levels
		m, err := RunHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Requests != 5000 {
			t.Errorf("levels %d: measured requests = %d, want 5000 (half of 10000)", levels, m.Requests)
		}
	}
}

func TestLargerCacheImprovesMetrics(t *testing.T) {
	for _, p := range []core.Policy{core.NewIF(), core.NewIB()} {
		small := runWith(t, p, bandwidth.NoVariation{}, cachePct(1))
		large := runWith(t, p, bandwidth.NoVariation{}, cachePct(10))
		if large.TrafficReductionRatio <= small.TrafficReductionRatio {
			t.Errorf("%s: traffic reduction did not grow with cache (%v -> %v)",
				p.Name(), small.TrafficReductionRatio, large.TrafficReductionRatio)
		}
		if large.AvgServiceDelay >= small.AvgServiceDelay {
			t.Errorf("%s: delay did not fall with cache (%v -> %v)",
				p.Name(), small.AvgServiceDelay, large.AvgServiceDelay)
		}
	}
}

// --- Shape assertions mirroring the paper's findings ---

func TestFigure5Shapes(t *testing.T) {
	// Constant bandwidth (Figure 5): IF achieves the highest traffic
	// reduction, PB the least; PB the lowest delay and highest quality,
	// IF the worst; IB in between on all three.
	ifM := runWith(t, core.NewIF(), bandwidth.NoVariation{}, cachePct(5))
	pbM := runWith(t, core.NewPB(), bandwidth.NoVariation{}, cachePct(5))
	ibM := runWith(t, core.NewIB(), bandwidth.NoVariation{}, cachePct(5))

	if !(ifM.TrafficReductionRatio > ibM.TrafficReductionRatio &&
		ibM.TrafficReductionRatio > pbM.TrafficReductionRatio) {
		t.Errorf("traffic reduction ordering IF > IB > PB violated: IF=%v IB=%v PB=%v",
			ifM.TrafficReductionRatio, ibM.TrafficReductionRatio, pbM.TrafficReductionRatio)
	}
	if !(pbM.AvgServiceDelay < ibM.AvgServiceDelay && ibM.AvgServiceDelay < ifM.AvgServiceDelay) {
		t.Errorf("delay ordering PB < IB < IF violated: PB=%v IB=%v IF=%v",
			pbM.AvgServiceDelay, ibM.AvgServiceDelay, ifM.AvgServiceDelay)
	}
	if !(pbM.AvgStreamQuality > ibM.AvgStreamQuality && ibM.AvgStreamQuality > ifM.AvgStreamQuality) {
		t.Errorf("quality ordering PB > IB > IF violated: PB=%v IB=%v IF=%v",
			pbM.AvgStreamQuality, ibM.AvgStreamQuality, ifM.AvgStreamQuality)
	}
}

func TestFigure6AlphaShapes(t *testing.T) {
	// Intensifying temporal locality (larger Zipf alpha) improves both
	// IB and PB, and preserves their relative ordering (Section 4.2).
	run := func(p core.Policy, alpha float64) Metrics {
		m, err := Run(Config{
			Workload:   workload.Config{NumObjects: 500, NumRequests: 10000, ZipfAlpha: alpha},
			CacheBytes: cachePct(5),
			Policy:     p,
			Runs:       2,
			Seed:       11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, mk := range []func() core.Policy{core.NewIB, core.NewPB} {
		p := mk()
		low, high := run(p, 0.5), run(p, 1.2)
		if high.TrafficReductionRatio <= low.TrafficReductionRatio {
			t.Errorf("%s: traffic reduction fell with alpha (%v -> %v)",
				p.Name(), low.TrafficReductionRatio, high.TrafficReductionRatio)
		}
		if high.AvgServiceDelay >= low.AvgServiceDelay {
			t.Errorf("%s: delay rose with alpha (%v -> %v)",
				p.Name(), low.AvgServiceDelay, high.AvgServiceDelay)
		}
	}
	ibHigh, pbHigh := run(core.NewIB(), 1.2), run(core.NewPB(), 1.2)
	if ibHigh.TrafficReductionRatio <= pbHigh.TrafficReductionRatio {
		t.Error("IB must keep its traffic-reduction lead at high alpha")
	}
	if pbHigh.AvgServiceDelay >= ibHigh.AvgServiceDelay {
		t.Error("PB must keep its delay lead at high alpha under constant bandwidth")
	}
}

func TestFigure7NLANRVariabilityShapes(t *testing.T) {
	// Under NLANR-level variability (Figure 7): delays rise and quality
	// falls for every algorithm versus constant bandwidth, and IB is no
	// worse than PB on delay.
	for _, mk := range []func() core.Policy{core.NewIF, core.NewPB, core.NewIB} {
		p := mk()
		constant := runWith(t, p, bandwidth.NoVariation{}, cachePct(5))
		variable := runWith(t, mk(), bandwidth.NLANRVariability(), cachePct(5))
		if variable.AvgServiceDelay <= constant.AvgServiceDelay {
			t.Errorf("%s: variability did not increase delay (%v -> %v)",
				p.Name(), constant.AvgServiceDelay, variable.AvgServiceDelay)
		}
		if variable.AvgStreamQuality >= constant.AvgStreamQuality {
			t.Errorf("%s: variability did not degrade quality (%v -> %v)",
				p.Name(), constant.AvgStreamQuality, variable.AvgStreamQuality)
		}
		// Traffic reduction is essentially unaffected (Figure 7a).
		diff := math.Abs(variable.TrafficReductionRatio - constant.TrafficReductionRatio)
		if diff > 0.05 {
			t.Errorf("%s: traffic reduction moved by %v under variability, want ~unchanged", p.Name(), diff)
		}
	}
	pbM := runWith(t, core.NewPB(), bandwidth.NLANRVariability(), cachePct(5))
	ibM := runWith(t, core.NewIB(), bandwidth.NLANRVariability(), cachePct(5))
	if ibM.AvgServiceDelay > pbM.AvgServiceDelay*1.1 {
		t.Errorf("IB delay (%v) should be no worse than PB's (%v) under high variability",
			ibM.AvgServiceDelay, pbM.AvgServiceDelay)
	}
}

func TestFigure8MeasuredVariabilityShapes(t *testing.T) {
	// Under realistic (lower) variability (Figure 8), PB again beats the
	// integral algorithms on delay and quality.
	ifM := runWith(t, core.NewIF(), bandwidth.MeasuredVariability(), cachePct(5))
	pbM := runWith(t, core.NewPB(), bandwidth.MeasuredVariability(), cachePct(5))
	ibM := runWith(t, core.NewIB(), bandwidth.MeasuredVariability(), cachePct(5))
	if !(pbM.AvgServiceDelay < ibM.AvgServiceDelay && pbM.AvgServiceDelay < ifM.AvgServiceDelay) {
		t.Errorf("PB delay (%v) should beat IB (%v) and IF (%v) under measured variability",
			pbM.AvgServiceDelay, ibM.AvgServiceDelay, ifM.AvgServiceDelay)
	}
	if !(pbM.AvgStreamQuality > ibM.AvgStreamQuality && pbM.AvgStreamQuality > ifM.AvgStreamQuality) {
		t.Errorf("PB quality (%v) should beat IB (%v) and IF (%v) under measured variability",
			pbM.AvgStreamQuality, ibM.AvgStreamQuality, ifM.AvgStreamQuality)
	}
}

func TestFigure9EstimatorShapes(t *testing.T) {
	// Hybrid estimator sweep (Figure 9): traffic reduction decreases
	// monotonically in e; a moderate e gives lower delay than either
	// endpoint under NLANR variability.
	at := func(e float64) Metrics {
		h, err := core.NewHybrid(e)
		if err != nil {
			t.Fatal(err)
		}
		return runWith(t, h, bandwidth.NLANRVariability(), cachePct(5))
	}
	m0, mHalf, m1 := at(0), at(0.5), at(1)
	if !(m0.TrafficReductionRatio > mHalf.TrafficReductionRatio &&
		mHalf.TrafficReductionRatio > m1.TrafficReductionRatio) {
		t.Errorf("traffic reduction not decreasing in e: %v, %v, %v",
			m0.TrafficReductionRatio, mHalf.TrafficReductionRatio, m1.TrafficReductionRatio)
	}
	if !(mHalf.AvgServiceDelay < m0.AvgServiceDelay && mHalf.AvgServiceDelay < m1.AvgServiceDelay) {
		t.Errorf("moderate e should minimize delay: e=0 %v, e=0.5 %v, e=1 %v",
			m0.AvgServiceDelay, mHalf.AvgServiceDelay, m1.AvgServiceDelay)
	}
}

func TestFigure10ValueShapesConstant(t *testing.T) {
	// Constant bandwidth (Figure 10): IF best traffic reduction but
	// worst value; PB-V best value but worst traffic; IB-V in between.
	ifM := runWith(t, core.NewIF(), bandwidth.NoVariation{}, cachePct(5))
	pbvM := runWith(t, core.NewPBV(), bandwidth.NoVariation{}, cachePct(5))
	ibvM := runWith(t, core.NewIBV(), bandwidth.NoVariation{}, cachePct(5))
	if !(ifM.TrafficReductionRatio > ibvM.TrafficReductionRatio &&
		ibvM.TrafficReductionRatio > pbvM.TrafficReductionRatio) {
		t.Errorf("traffic ordering IF > IB-V > PB-V violated: %v, %v, %v",
			ifM.TrafficReductionRatio, ibvM.TrafficReductionRatio, pbvM.TrafficReductionRatio)
	}
	if !(pbvM.TotalAddedValue > ibvM.TotalAddedValue && ibvM.TotalAddedValue > ifM.TotalAddedValue) {
		t.Errorf("value ordering PB-V > IB-V > IF violated: %v, %v, %v",
			pbvM.TotalAddedValue, ibvM.TotalAddedValue, ifM.TotalAddedValue)
	}
}

func TestFigure11ValueShapesVariable(t *testing.T) {
	// Measured variability (Figure 11): IB-V yields the best value
	// (PB-V's edge evaporates when bandwidth varies).
	ifM := runWith(t, core.NewIF(), bandwidth.MeasuredVariability(), cachePct(5))
	pbvM := runWith(t, core.NewPBV(), bandwidth.MeasuredVariability(), cachePct(5))
	ibvM := runWith(t, core.NewIBV(), bandwidth.MeasuredVariability(), cachePct(5))
	if !(ibvM.TotalAddedValue > ifM.TotalAddedValue && ibvM.TotalAddedValue > pbvM.TotalAddedValue) {
		t.Errorf("IB-V value (%v) should beat IF (%v) and PB-V (%v) under variability",
			ibvM.TotalAddedValue, ifM.TotalAddedValue, pbvM.TotalAddedValue)
	}
}

func TestFigure12ValueEstimatorShapes(t *testing.T) {
	// Value-objective estimator sweep (Figure 12): a moderate e earns
	// more value than either extreme under NLANR variability.
	at := func(e float64) Metrics {
		h, err := core.NewHybridV(e)
		if err != nil {
			t.Fatal(err)
		}
		return runWith(t, h, bandwidth.NLANRVariability(), cachePct(5))
	}
	m0, mMid, m1 := at(0), at(0.35), at(1)
	if !(mMid.TotalAddedValue > m0.TotalAddedValue && mMid.TotalAddedValue > m1.TotalAddedValue) {
		t.Errorf("moderate e should maximize value: e=0 %v, e=0.35 %v, e=1 %v",
			m0.TotalAddedValue, mMid.TotalAddedValue, m1.TotalAddedValue)
	}
}

func TestEWMAEstimatorRuns(t *testing.T) {
	m, err := Run(Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(5),
		Policy:     core.NewPB(),
		Variation:  bandwidth.MeasuredVariability(),
		Estimator:  EWMA{0.3},
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.TrafficReductionRatio <= 0 {
		t.Errorf("EWMA run: traffic reduction %v, want > 0", m.TrafficReductionRatio)
	}
}

func TestUnderestimatingOracleMatchesHybridDirection(t *testing.T) {
	// PB + Underestimate{0} must cache whole objects like IB:
	// its traffic reduction should exceed plain PB's.
	pb := runWith(t, core.NewPB(), bandwidth.NoVariation{}, cachePct(5))
	m, err := Run(Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(5),
		Policy:     core.NewPB(),
		Estimator:  Underestimate{0},
		Runs:       2,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.TrafficReductionRatio <= pb.TrafficReductionRatio {
		t.Errorf("underestimating oracle traffic %v should exceed plain PB %v",
			m.TrafficReductionRatio, pb.TrafficReductionRatio)
	}
}

// TestBandwidthBlindPoliciesIgnoreEstimators: IF, LFU and LRU read no
// bandwidth (core.ReadsBandwidth), which is why withDefaults drops their
// estimator and the arena scores them under the oracle's key. The
// replays the drop saves are the oracle's bit for bit: replayColumns
// under each estimator, set after withDefaults, scores every column at
// every capacity as the oracle does, EWMA observing that column.
func TestBandwidthBlindPoliciesIgnoreEstimators(t *testing.T) {
	arena := NewArena()
	wl := testWorkload()
	vars := []bandwidth.Variability{bandwidth.NoVariation{}, bandwidth.MeasuredVariability(), bandwidth.NLANRVariability()}
	for _, name := range []string{"IF", "LFU", "LRU"} {
		p, err := core.PolicyByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := Config{Workload: wl, Policy: p, Estimator: EWMA{0.3}, Seed: 3, Arena: arena}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		if core.ReadsBandwidth(p) || cfg.Estimator != nil {
			t.Errorf("%s: ReadsBandwidth %v, normalised estimator %v; want false and nil", name, core.ReadsBandwidth(p), cfg.Estimator)
		}
		seed := SplitSeed(cfg.Seed, 0)
		rp, err := arena.tapeOf(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]column, len(vars))
		for k, v := range vars {
			one := cfg
			one.Variation = v
			cols[k] = arena.column(one, seed, rp)
		}
		for _, cb := range []int64{cachePct(0.5), cachePct(5), cachePct(17)} {
			want := make([]Metrics, len(cols))
			if err := replayColumns(cfg, rp, cb, cols, want); err != nil {
				t.Fatal(err)
			}
			for _, e := range []Estimator{EWMA{0.3}, Underestimate{0.5}, ActiveProbe{0.1}} {
				one := cfg
				one.Estimator = e
				for k := range cols {
					got := make([]Metrics, 1)
					if err := replayColumns(one, rp, cb, cols[k:k+1], got); err != nil {
						t.Fatal(err)
					}
					if got[0] != want[k] {
						t.Errorf("%s at %d under %#v, %T:\n got %+v\nwant %+v, the oracle's", name, cb, e, vars[k], got[0], want[k])
					}
				}
			}
		}
	}
}

// TestLFUIsIF: LFU is IF under another name, one Utility and one
// Target, which is why withDefaults normalises LFU to IF and the arena
// answers an LFU row from IF's scoring. The trajectories the mapping
// saves are IF's bit for bit: replayColumns under LFU, set after
// withDefaults, scores every column at every capacity as IF does, under
// every estimator and both eviction modes.
func TestLFUIsIF(t *testing.T) {
	arena := NewArena()
	cfg, err := Config{Workload: testWorkload(), Policy: core.NewLFU(), Seed: 3, Arena: arena}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != core.NewIF() {
		t.Fatalf("LFU normalises to %s, want IF", cfg.Policy.Name())
	}
	seed := SplitSeed(cfg.Seed, 0)
	rp, err := arena.tapeOf(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	var cols []column
	for _, v := range []bandwidth.Variability{bandwidth.NoVariation{}, bandwidth.NLANRVariability()} {
		one := cfg
		one.Variation = v
		cols = append(cols, arena.column(one, seed, rp))
	}
	for _, whole := range []bool{false, true} {
		for _, e := range []Estimator{nil, EWMA{0.3}, Underestimate{0.5}, ActiveProbe{0.1}} {
			frequency, lfu := cfg, cfg
			frequency.Estimator, frequency.WholeObjectEviction = e, whole
			lfu.Policy, lfu.Estimator, lfu.WholeObjectEviction = core.NewLFU(), e, whole
			for _, cb := range []int64{cachePct(0.5), cachePct(5), cachePct(17)} {
				for k := range cols {
					var got, want [1]Metrics
					if err := replayColumns(frequency, rp, cb, cols[k:k+1], want[:]); err != nil {
						t.Fatal(err)
					}
					if err := replayColumns(lfu, rp, cb, cols[k:k+1], got[:]); err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("at %d under %#v, whole=%v, column %d:\n got %+v\nwant %+v, IF's", cb, e, whole, k, got[0], want[0])
					}
				}
			}
		}
	}
}

// TestUnderestimateIsOracleOverScaledMeans holds Underestimate{E} to
// its definition, the oracle over means scaled by E: over each run
// seed's tape its cache follows, request for request, the trajectory of
// the oracle over the same tape with every path mean times E, so every
// measure of the cache agrees bit for bit (both score one bandwidth
// column). PB-V's utility is not proportional to 1/b, so it also sees
// the price its utility is computed at, not only its target's.
func TestUnderestimateIsOracleOverScaledMeans(t *testing.T) {
	const e = 0.5
	arena := NewArena()
	for _, p := range []core.Policy{core.NewPB(), core.NewPBV()} {
		under, err := Config{Workload: testWorkload(), Policy: p, Estimator: Underestimate{e}, Arena: arena}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		oracle := under
		oracle.Estimator = nil
		for run := range int64(2) {
			rp, err := arena.tapeOf(under, SplitSeed(42, run))
			if err != nil {
				t.Fatal(err)
			}
			scaled := *rp
			scaled.means = make([]float64, len(rp.means))
			for o, mean := range rp.means {
				scaled.means[o] = e * mean
			}
			col := []column{{inst: rp.means}}
			var u, o [1]Metrics
			if err := replayColumns(under, rp, cachePct(2), col, u[:]); err != nil {
				t.Fatal(err)
			}
			if err := replayColumns(oracle, &scaled, cachePct(2), col, o[:]); err != nil {
				t.Fatal(err)
			}
			if u != o {
				t.Errorf("%s run %d: Underestimate{%v} %+v, oracle over scaled means %+v: the caches differ", p.Name(), run, e, u[0], o[0])
			}
		}
	}
}

func TestWholeObjectEvictionOption(t *testing.T) {
	m, err := Run(Config{
		Workload:            testWorkload(),
		CacheBytes:          cachePct(5),
		Policy:              core.NewIF(),
		WholeObjectEviction: true,
		Seed:                17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.TrafficReductionRatio <= 0 {
		t.Errorf("whole-object eviction run: traffic %v, want > 0", m.TrafficReductionRatio)
	}
}

func TestPartialViewingReducesMeasuredTraffic(t *testing.T) {
	base := Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(5),
		Policy:     core.NewIF(),
		Runs:       2,
		Seed:       23,
	}
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	partial := base
	partial.Workload.PartialViewProb = 0.6
	got, err := Run(partial)
	if err != nil {
		t.Fatal(err)
	}
	// With 60% of sessions stopping early the absolute transferred
	// volume shrinks; the reduction *ratio* should stay in a sane range.
	if got.TrafficReductionRatio <= 0 || got.TrafficReductionRatio > 1 {
		t.Errorf("partial-viewing traffic ratio %v invalid", got.TrafficReductionRatio)
	}
	// Prefix caching is relatively more effective for partial viewers
	// (they only ever want the head of the stream), so the reduction
	// ratio must not collapse versus full sessions.
	if got.TrafficReductionRatio < full.TrafficReductionRatio*0.8 {
		t.Errorf("partial viewing ratio %v collapsed vs full %v",
			got.TrafficReductionRatio, full.TrafficReductionRatio)
	}
}

func TestActiveProbeEstimatorRuns(t *testing.T) {
	m, err := Run(Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(5),
		Policy:     core.NewPB(),
		Variation:  bandwidth.MeasuredVariability(),
		Estimator:  ActiveProbe{0.1},
		Runs:       2,
		Seed:       29,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.TrafficReductionRatio <= 0 {
		t.Errorf("active probing run cached nothing: %+v", m)
	}
	if m.AvgStreamQuality <= 0.5 {
		t.Errorf("active probing run degenerate quality %v", m.AvgStreamQuality)
	}
}

// TestEstimateColumns holds each estimator's column to its definition.
// At every request of a tape whose bandwidth varies per request, the
// price equals a reference that steps a fresh bandwidth.EWMA, or the
// probe's noise stream, through the earlier requests of that object
// alone; the oracle and Underestimate price per object; and each target
// is the policy's at that price. One scratch serves every estimator in
// turn, so the path means the oracle reads in place must survive the
// estimators that follow it.
func TestEstimateColumns(t *testing.T) {
	cfg, err := Config{Workload: testWorkload(), Policy: core.NewPB(), Variation: bandwidth.MeasuredVariability(), Seed: 3}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	seed := SplitSeed(cfg.Seed, 0)
	rp, err := cfg.Arena.tapeOf(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	observed := cfg.Arena.column(cfg, seed, rp)
	means := slices.Clone(rp.means)
	byObject := make([][]int, len(rp.objs))
	for i, o := range rp.obj {
		byObject[o] = append(byObject[o], i)
	}

	// Each reference fills want at reqs, the requests of object o in order.
	want := make([]float64, len(rp.obj))
	estimators := []struct {
		name      string
		e         Estimator
		perObject bool
		reference func(o int, reqs []int) error
	}{
		{"oracle", nil, true, func(o int, reqs []int) error {
			for _, i := range reqs {
				want[i] = means[o]
			}
			return nil
		}},
		{"underestimate", Underestimate{0.5}, true, func(o int, reqs []int) error {
			for _, i := range reqs {
				want[i] = 0.5 * means[o]
			}
			return nil
		}},
		{"ewma", EWMA{0.3}, false, func(o int, reqs []int) error {
			e, err := bandwidth.NewEWMA(0.3)
			if err != nil {
				return err
			}
			for _, i := range reqs {
				want[i] = e.Estimate()
				e.Observe(observed.at(i, uint32(o)))
			}
			return nil
		}},
		{"probe", ActiveProbe{0.2}, false, func(o int, reqs []int) error {
			// Path o measures with a noise stream seeded by its mean and
			// its index: per request, RTT's factor and then loss's.
			mean := max(means[o], 1024)
			loss, err := bandwidth.PadhyeLossForRate(mean, probeMSS, probeRTT, probeRTO, 1)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(SplitSeed(int64(math.Float64bits(mean))^0x41C64E6D, int64(o))))
			factor := func() float64 { return max(1+float64(0.2*rng.NormFloat64()), 0.1) }
			for _, i := range reqs {
				rtt := time.Duration(float64(probeRTT) * factor())
				l := loss * factor()
				if l >= 1 {
					l = 0.99
				}
				if want[i], err = bandwidth.PadhyeThroughput(probeMSS, rtt, probeRTO, l, 1); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	s := new(runScratch)
	for _, est := range estimators {
		for o, reqs := range byObject {
			if err := est.reference(o, reqs); err != nil {
				t.Fatal(err)
			}
		}
		one := cfg
		one.Estimator = est.e
		price, targets, err := s.estimate(one, rp, observed)
		if err != nil {
			t.Fatal(err)
		}
		if price.perRequest == est.perObject {
			t.Errorf("%s: column per request is %v, want %v", est.name, price.perRequest, !est.perObject)
		}
		for i, o := range rp.obj {
			obj, j := rp.objs[o], int(o)
			if price.perRequest {
				j = i
			}
			target := max(min(cfg.Policy.Target(obj, want[i]), obj.Size), 0)
			if got := price.at(i, o); got != want[i] || targets[j] != target {
				t.Errorf("%s: request %d of object %d priced at %v with target %d, want %v and %d",
					est.name, i, o, got, targets[j], want[i], target)
				break
			}
		}
	}
	if !slices.Equal(rp.means, means) {
		t.Error("an estimator run wrote into the arena's path means")
	}
}

// probeTape is a tape of n requests to each of len(means) paths, in
// turn, whose means are means.
func probeTape(n int, means ...float64) *tape {
	rp := &tape{objs: make([]core.Object, len(means)), means: means}
	for i := range n * len(means) {
		rp.obj = append(rp.obj, uint32(i%len(means)))
	}
	return rp
}

// TestActiveProbeNoiselessMatchesModel: without noise every probe
// measures a path's true conditions — RTT probeRTT and the loss in
// (0, 1) at which the Padhye model gives the path's mean — so every
// price is the model's throughput at them, within 1 % of the mean.
func TestActiveProbeNoiselessMatchesModel(t *testing.T) {
	means := []float64{units.KBps(10), units.KBps(80), units.KBps(200)}
	rp := probeTape(3, means...)
	price, err := ActiveProbe{0}.prices(nil, rp, column{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(means))
	for o, mean := range means {
		loss, err := bandwidth.PadhyeLossForRate(mean, probeMSS, probeRTT, probeRTO, 1)
		if err != nil {
			t.Fatal(err)
		}
		if loss <= 0 || loss >= 1 {
			t.Errorf("path %d: loss %v outside (0,1)", o, loss)
		}
		if want[o], err = bandwidth.PadhyeThroughput(probeMSS, probeRTT, probeRTO, loss, 1); err != nil {
			t.Fatal(err)
		}
		if math.Abs(want[o]-mean)/mean > 0.01 {
			t.Errorf("path %d: the model gives %v at its conditions, want its mean %v within 1%%", o, want[o], mean)
		}
	}
	for i, o := range rp.obj {
		if got := price.at(i, o); got != want[o] {
			t.Errorf("request %d: noiseless probe of path %d = %v, want %v", i, o, got, want[o])
		}
	}
}

// TestActiveProbeNoisyEstimatesCenterOnTruth: with 10 % measurement
// noise every probe is positive and their mean is the path's mean
// within 15 %.
func TestActiveProbeNoisyEstimatesCenterOnTruth(t *testing.T) {
	mean := units.KBps(60)
	rp := probeTape(2000, mean)
	price, err := ActiveProbe{0.1}.prices(nil, rp, column{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, o := range rp.obj {
		est := price.at(i, o)
		if est <= 0 {
			t.Fatalf("probe %d: estimate %v <= 0", i, est)
		}
		sum += est
	}
	if got := sum / float64(len(rp.obj)); math.Abs(got-mean)/mean > 0.15 {
		t.Errorf("mean noisy estimate %v KB/s, want ~%v (+-15%%)", units.ToKBps(got), units.ToKBps(mean))
	}
}

// TestActiveProbeDeterministicForSeed: a path's probes are a function of
// its mean and its index alone, so a tape prices alike every time, and a
// path draws the same probes beside other paths as alone.
func TestActiveProbeDeterministicForSeed(t *testing.T) {
	m0, m1 := units.KBps(40), units.KBps(90)
	both := probeTape(50, m0, m1)
	a, err := ActiveProbe{0.2}.prices(nil, both, column{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ActiveProbe{0.2}.prices(nil, both, column{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.inst, b.inst) {
		t.Error("one tape priced twice: the probe columns differ")
	}
	alone, err := ActiveProbe{0.2}.prices(nil, probeTape(50, m0), column{})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range alone.inst {
		if got := a.at(2*k, 0); got != want {
			t.Fatalf("probe %d of path 0: %v beside path 1, %v alone", k, got, want)
		}
	}
}

func TestActiveProbeDeterministic(t *testing.T) {
	cfg := Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(2),
		Policy:     core.NewPB(),
		Estimator:  ActiveProbe{0.2},
		Seed:       31,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("active probing not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestAgingPolicySharedAcrossRuns(t *testing.T) {
	// One GDSP value drives parallel runs, each run's cache aging alone.
	cfg := Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(5),
		Policy:     core.NewGDSP(),
		Runs:       3,
		Seed:       37,
	}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.TrafficReductionRatio <= 0 {
		t.Errorf("GDSP run cached nothing: %+v", m)
	}
	// The same value, already used, reproduces the runs: it holds no state.
	m2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m != m2 {
		t.Errorf("shared GDSP runs not deterministic:\n%+v\n%+v", m, m2)
	}
}

func TestGDSPBehavesLikeNetworkAwarePolicy(t *testing.T) {
	// GDSP with the bandwidth cost should beat frequency-only IF on
	// delay (it shares the F/b core with IB, plus aging).
	ifM := runWith(t, core.NewIF(), bandwidth.NoVariation{}, cachePct(5))
	gdsp, err := Run(Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(5),
		Policy:     core.NewGDSP(),
		Runs:       2,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gdsp.AvgServiceDelay >= ifM.AvgServiceDelay {
		t.Errorf("GDSP delay %v, want below IF's %v", gdsp.AvgServiceDelay, ifM.AvgServiceDelay)
	}
}

// TestBadEstimatorIsBadConfig: an estimator parameter outside its range
// fails Run, RunGroup and ScorePending with ErrBadConfig before any run
// builds an estimator, rather than panicking in a worker, and the ends
// of each range are accepted, for a policy that reads no bandwidth too.
// A per-path failure — here the Padhye conditions of a path whose mean
// is NaN, on a path's first probe — is an error the probe column
// returns.
func TestBadEstimatorIsBadConfig(t *testing.T) {
	nan := math.NaN()
	wl := workload.Config{NumObjects: 20, NumRequests: 200}
	for _, tt := range []struct {
		name string
		e    Estimator
		bad  bool
	}{
		{"ewma alpha 1", EWMA{1}, false},
		{"ewma alpha 0", EWMA{0}, true},
		{"ewma alpha above 1", EWMA{1.5}, true},
		{"ewma alpha NaN", EWMA{nan}, true},
		{"underestimate e 0", Underestimate{0}, false},
		{"underestimate e 1", Underestimate{1}, false},
		{"underestimate e negative", Underestimate{-3}, true},
		{"underestimate e above 1", Underestimate{1.5}, true},
		{"underestimate e NaN", Underestimate{nan}, true},
		{"probe jitter 0", ActiveProbe{0}, false},
		{"probe jitter negative", ActiveProbe{-0.1}, true},
		{"probe jitter 1", ActiveProbe{1}, true},
		{"probe jitter NaN", ActiveProbe{nan}, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			// IF's estimator is dropped (core.ReadsBandwidth), but only
			// once it is valid.
			for _, p := range []core.Policy{core.NewPB(), core.NewIF()} {
				cfg := Config{Workload: wl, CacheBytes: 1 << 30, Policy: p, Estimator: tt.e, Parallelism: 2}
				_, runErr := Run(cfg)
				_, groupErr := RunGroup(cfg, []Member{{1 << 30, nil}, {1 << 31, nil}})
				_, pendingErr := NewArena().ScorePending([]HierarchyConfig{{Config: cfg}}, 2)
				for call, err := range map[string]error{"Run": runErr, "RunGroup": groupErr, "ScorePending": pendingErr} {
					if tt.bad && !errors.Is(err, ErrBadConfig) {
						t.Errorf("%s %s: %v, want ErrBadConfig", p.Name(), call, err)
					}
					if !tt.bad && err != nil {
						t.Errorf("%s %s: %v", p.Name(), call, err)
					}
				}
			}
		})
	}
	rp := &tape{objs: make([]core.Object, 2), obj: []uint32{1, 0, 1}, means: []float64{2e5, nan}}
	if _, err := (ActiveProbe{0.1}).prices(nil, rp, column{}); err == nil {
		t.Error("a probe of a NaN-mean path priced it")
	}
}
