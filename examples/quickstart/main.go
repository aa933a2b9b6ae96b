// Quickstart: build a network-aware partial cache, feed it a Table 1
// workload, and compare the paper's three main policies on the three
// Section 3.3 metrics - the smallest useful tour of the library. Like
// cmd/ and bench/, the examples import internal/* directly: the module
// has no facade package.
package main

import (
	"fmt"
	"os"

	"streamcache/internal/core"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A scaled-down Table 1 workload: 300 objects (~47 GB), 8000
	// Zipf-distributed requests arriving as a Poisson process.
	wcfg := workload.Config{NumObjects: 300, NumRequests: 8000}
	w, err := workload.Generate(wcfg)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d objects, %.1f GB unique bytes, %d requests\n",
		len(w.Objects), float64(w.TotalUniqueBytes())/(1<<30), len(w.Requests))

	// A cache worth 5% of the unique bytes, origin paths drawn from the
	// reconstructed NLANR bandwidth distribution (Figure 2).
	cacheBytes := w.TotalUniqueBytes() / 20
	fmt.Printf("cache: %.1f GB (5%% of unique bytes)\n\n", float64(cacheBytes)/(1<<30))
	fmt.Printf("%-4s  %-18s %-14s %-13s\n", "", "traffic_reduction", "avg_delay_s", "avg_quality")

	for _, policy := range []core.Policy{
		core.NewIF(), // frequency-only: whole hot objects
		core.NewIB(), // network-aware, whole objects
		core.NewPB(), // network-aware, partial (the paper's headline)
	} {
		m, err := sim.Run(sim.Config{
			Workload:   wcfg,
			CacheBytes: cacheBytes,
			Policy:     policy,
			Runs:       3,
			Seed:       1,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-4s  %-18.3f %-14.1f %-13.3f\n",
			policy.Name(), m.TrafficReductionRatio, m.AvgServiceDelay, m.AvgStreamQuality)
	}
	fmt.Println("\nExpected shape (paper Figure 5): IF wins traffic reduction;")
	fmt.Println("PB wins service delay and stream quality; IB sits between.")
	return nil
}
