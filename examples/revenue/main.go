// Revenue: the Section 2.6 scenario. Each stream has a dollar value that
// is earned only when cache + origin can jointly support immediate
// playout. The example compares the value-aware policies (PB-V, IB-V)
// against frequency-only caching under constant and variable bandwidth,
// and shows the static greedy optimum for calibration.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "revenue:", err)
		os.Exit(1)
	}
}

func run() error {
	wcfg := workload.Config{NumObjects: 300, NumRequests: 8000}
	w, err := workload.Generate(wcfg)
	if err != nil {
		return err
	}
	cacheBytes := w.TotalUniqueBytes() / 20 // 5%

	fmt.Println("Dynamic simulation (values $1-$10 per served stream):")
	fmt.Printf("%-28s %-6s %-18s %-12s\n", "bandwidth", "policy", "traffic_reduction", "total_value")
	for _, scenario := range []struct {
		label     string
		variation bandwidth.Variability
	}{
		{"constant", bandwidth.NoVariation{}},
		{"variable (measured paths)", bandwidth.MeasuredVariability()},
	} {
		for _, policy := range []core.Policy{
			core.NewIF(), core.NewPBV(), core.NewIBV(),
		} {
			m, err := sim.Run(sim.Config{
				Workload:   wcfg,
				CacheBytes: cacheBytes,
				Policy:     policy,
				Variation:  scenario.variation,
				Runs:       3,
				Seed:       1,
			})
			if err != nil {
				return err
			}
			fmt.Printf("%-28s %-6s %-18.3f $%-11.0f\n",
				scenario.label, policy.Name(), m.TrafficReductionRatio, m.TotalAddedValue)
		}
	}

	// Static greedy optimum of Section 2.6 for a known-rate snapshot.
	lambda := make([]float64, len(w.Objects))
	bw := make([]float64, len(w.Objects))
	counts := w.RequestCounts()
	model := bandwidth.NLANR()
	rng := rand.New(rand.NewSource(1))
	for i := range w.Objects {
		lambda[i] = float64(counts[i])
		bw[i] = model.Sample(rng)
	}
	placement, valueRate, err := core.OptimalValuePlacement(w.Objects, lambda, bw, cacheBytes)
	if err != nil {
		return err
	}
	var cached int64
	for _, bytes := range placement {
		cached += bytes
	}
	fmt.Printf("\nStatic greedy optimum (known rates): %d objects' deficits cached (%.1f GB), value rate %.0f\n",
		len(placement), float64(cached)/(1<<30), valueRate)
	fmt.Println("\nExpected shape (paper Figures 10-11): PB-V earns the most value under")
	fmt.Println("constant bandwidth; IB-V becomes the best choice once bandwidth varies.")
	return nil
}
