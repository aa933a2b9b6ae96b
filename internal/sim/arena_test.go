package sim

import (
	"testing"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
)

// TestArenaMetricsBitIdentical is the memoization contract: a shared
// arena must not change Metrics by a single bit relative to fresh
// generation, at any worker count.
func TestArenaMetricsBitIdentical(t *testing.T) {
	base := Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(5),
		Policy:     core.NewPB(),
		Variation:  bandwidth.NLANRVariability(),
		Runs:       4,
		Seed:       42,
	}
	fresh, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	for _, par := range []int{1, 2, 8} {
		cfg := base
		cfg.Arena = arena
		cfg.Parallelism = par
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh {
			t.Errorf("Arena+Parallelism=%d changed metrics:\n%+v\nwant\n%+v", par, got, fresh)
		}
	}
}

// The contract must also hold for stateful estimators (EWMA observes
// per-request draws) and a second sweep point sharing the same arena.
func TestArenaSharedAcrossConfigsBitIdentical(t *testing.T) {
	arena := NewArena()
	for _, cacheBytes := range []int64{cachePct(2), cachePct(10)} {
		base := Config{
			Workload:   testWorkload(),
			CacheBytes: cacheBytes,
			Policy:     core.NewPB(),
			Variation:  bandwidth.MeasuredVariability(),
			Estimator:  EWMA{0.3},
			Runs:       2,
			Seed:       7,
		}
		fresh, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		memo := base
		memo.Arena = arena
		got, err := Run(memo)
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh {
			t.Errorf("cache=%d: memoized metrics differ:\n%+v\nwant\n%+v", cacheBytes, got, fresh)
		}
	}
}

// TestArenaReusesWorkloads pins that the arena actually dedupes: N
// sweep points x R runs over one workload and one variability compile
// exactly R tapes and R bandwidth columns, a second variability adds R
// columns and no tape, and the public lookups share their backing data.
func TestArenaReusesWorkloads(t *testing.T) {
	arena := NewArena()
	const runs = 3
	base := Config{
		Workload:  testWorkload(),
		Policy:    core.NewPB(),
		Variation: bandwidth.NLANRVariability(),
		Runs:      runs,
		Seed:      99,
		Arena:     arena,
	}
	for _, pct := range []float64{1, 2, 5, 10} {
		cfg := base
		cfg.CacheBytes = cachePct(pct)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if tapes, rates := arena.Compiles(); tapes != runs || rates != runs {
		t.Errorf("4 points x %d runs compiled %d tapes and %d bandwidth columns, want %d of each", runs, tapes, rates, runs)
	}
	constant := base
	constant.CacheBytes = cachePct(5)
	constant.Variation = nil // NoVariation: one per-object table per run
	if _, err := Run(constant); err != nil {
		t.Fatal(err)
	}
	h := HierarchyConfig{Config: constant, Edges: 4, Levels: 2, ParentFraction: 0.4}
	if _, err := RunHierarchy(h); err != nil {
		t.Fatal(err)
	}
	if tapes, rates := arena.Compiles(); tapes != runs || rates != 2*runs {
		t.Errorf("a second variability and a hierarchy run left %d tapes and %d columns, want %d and %d", tapes, rates, runs, 2*runs)
	}

	cfg := testWorkload()
	cfg.Seed = 99
	a, err := arena.Workload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := arena.Workload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same workload config generated twice despite arena")
	}
}

// TestRunOnceSteadyStateAllocs pins the per-request allocation budget of
// both request loops: with a warm arena and a warm scratch, a full run
// performs only its fixed per-run set-up allocations (options, the
// ownership ring), i.e. well under 0.01 allocs per request — no cache
// table is rebuilt, flat or at any of the hierarchy table's topologies.
func TestRunOnceSteadyStateAllocs(t *testing.T) {
	cfg := Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(5),
		Policy:     core.NewPB(),
		Runs:       1,
		Seed:       5,
		Arena:      NewArena(),
	}
	cfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	seed := SplitSeed(cfg.Seed, 0)
	loops := []struct {
		name string
		run  func() error
	}{
		{"flat", func() error { _, err := Run(cfg); return err }},
	}
	for _, top := range hierarchyTopologies {
		hcfg := withTopology(t, HierarchyConfig{
			Config: cfg, Levels: top.levels, Edges: top.edges, Peering: top.peering, ParentFraction: top.parentFrac,
		})
		loops = append(loops, struct {
			name string
			run  func() error
		}{top.name, func() error { _, err := hierarchyRunOnce(hcfg, seed); return err }})
	}
	for _, l := range loops {
		if err := l.run(); err != nil { // warm the arena and the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
		})
		perRequest := allocs / float64(cfg.Workload.NumRequests)
		if perRequest > 0.01 {
			t.Errorf("%s: steady-state run allocates %.4f objects/request (%.0f total), want <= 0.01",
				l.name, perRequest, allocs)
		}
	}
}

// The active prober must draw independent noise streams for paths that
// share a mean bandwidth (the probe seed mixes in the path index): two
// objects of equal means, requested in turn, get different columns.
func TestActiveProberSeedsDifferPerPath(t *testing.T) {
	const mean = 256 * 1024.0
	rp := &tape{objs: make([]core.Object, 2), obj: []uint32{0, 1, 0, 1, 0, 1}, means: []float64{mean, mean}}
	price, err := ActiveProbe{0.3}.prices(nil, rp, column{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rp.obj); i += 2 {
		if a, b := price.at(i, 0), price.at(i+1, 1); a == b {
			t.Errorf("probe %d: two paths with equal means share a probe stream: both estimate %v", i/2, a)
		}
	}
}
