package sim

import (
	"testing"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
)

// TestMetricsIdenticalAcrossParallelism is the engine's core contract:
// the same seed produces bit-identical Metrics whether the runs execute
// on 1, 2 or 8 workers.
func TestMetricsIdenticalAcrossParallelism(t *testing.T) {
	base := Config{
		Workload:   testWorkload(),
		CacheBytes: cachePct(5),
		Policy:     core.NewPB(),
		Variation:  bandwidth.NLANRVariability(),
		Runs:       4,
		Seed:       42,
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		cfg := base
		cfg.Parallelism = par
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("Parallelism=%d changed metrics:\n%+v\nwant\n%+v", par, got, ref)
		}
	}
}

// One aging policy value driving parallel runs must also be
// schedule-independent: each run's cache keeps its own L.
func TestAgingMetricsIdenticalAcrossParallelism(t *testing.T) {
	var ref Metrics
	gdsp := core.NewGDSP()
	for i, par := range []int{1, 2, 8} {
		m, err := Run(Config{
			Workload:    testWorkload(),
			CacheBytes:  cachePct(5),
			Policy:      gdsp,
			Runs:        3,
			Seed:        37,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = m
			continue
		}
		if m != ref {
			t.Errorf("Parallelism=%d changed aging metrics:\n%+v\nwant\n%+v", par, m, ref)
		}
	}
}

func TestParallelismValidation(t *testing.T) {
	_, err := Run(Config{
		Workload:    testWorkload(),
		CacheBytes:  1,
		Policy:      core.NewIF(),
		Parallelism: -1,
	})
	if err == nil {
		t.Error("negative Parallelism accepted")
	}
}

func TestSplitSeedProperties(t *testing.T) {
	// Distinct (base, stream) pairs must map to distinct seeds, and in
	// particular the naive base+run overlap (run r+1 of base b equals
	// run r of base b+1) must not exist.
	seen := make(map[int64][2]int64)
	for base := int64(0); base < 50; base++ {
		for stream := int64(0); stream < 50; stream++ {
			s := SplitSeed(base, stream)
			if prev, dup := seen[s]; dup {
				t.Fatalf("SplitSeed collision: (%d,%d) and (%d,%d) -> %d",
					base, stream, prev[0], prev[1], s)
			}
			seen[s] = [2]int64{base, stream}
		}
	}
	if SplitSeed(1, 1) == SplitSeed(2, 0) {
		t.Error("adjacent base seeds share run seeds (base+run overlap)")
	}
	if SplitSeed(5, 3) != SplitSeed(5, 3) {
		t.Error("SplitSeed is not deterministic")
	}
}
