// Command mediasim runs one partial-caching simulation experiment and
// prints the Section 3.3 metrics.
//
// Example: reproduce one Figure 5 point at full paper scale:
//
//	mediasim -policy PB -cache-gb 40 -objects 5000 -requests 100000 -runs 10
//
// Or a Figure 9 point (estimator e = 0.5 under NLANR variability):
//
//	mediasim -policy HYBRID -e 0.5 -variability nlanr -cache-gb 40
//
// Sweeps over e, sigma or cache size are cmd/figures' job:
// figures -only refined-e|refined-sigma|refined-cache [-refine N].
package main

import (
	"flag"
	"fmt"
	"os"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/profile"
	"streamcache/internal/sim"
	"streamcache/internal/units"
	"streamcache/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mediasim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		policyName  = flag.String("policy", "PB", "policy: IF, PB, IB, PB-V, IB-V, LRU, LFU, HYBRID, HYBRID-V, GDS, GDS-BW, GDSP")
		e           = flag.Float64("e", 0.5, "bandwidth under-estimation factor for HYBRID policies")
		cacheGB     = flag.Float64("cache-gb", 40, "cache capacity in GB")
		objects     = flag.Int("objects", 1000, "unique streaming objects")
		requests    = flag.Int("requests", 20000, "total requests")
		alpha       = flag.Float64("alpha", 0.73, "Zipf popularity skew")
		variability = flag.String("variability", "none", "bandwidth variability: none, nlanr, measured, inria, fareast")
		estimator   = flag.String("estimator", "oracle", "bandwidth estimator: oracle, ewma, underestimate")
		ewmaAlpha   = flag.Float64("ewma-alpha", 0.3, "EWMA smoothing factor")
		runs        = flag.Int("runs", 3, "independently seeded runs to average")
		seed        = flag.Int64("seed", 1, "base random seed")
		wholeEvict  = flag.Bool("whole-eviction", false, "evict whole objects instead of prefix bytes")
		parallel    = flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS); results are identical for any value")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profile.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	policy, err := core.PolicyByName(*policyName, *e)
	if err != nil {
		return err
	}
	variation, err := bandwidth.VariabilityByName(*variability)
	if err != nil {
		return err
	}
	est, err := estimatorByName(*estimator, *ewmaAlpha, *e)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Workload: workload.Config{
			NumObjects:  *objects,
			NumRequests: *requests,
			ZipfAlpha:   *alpha,
		},
		CacheBytes:          units.GBytes(*cacheGB),
		Policy:              policy,
		WholeObjectEviction: *wholeEvict,
		Variation:           variation,
		Estimator:           est,
		Runs:                *runs,
		Seed:                *seed,
		Parallelism:         *parallel,
	}
	m, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("policy=%s cache=%.1fGB objects=%d requests=%d alpha=%.2f variability=%s runs=%d\n",
		policy.Name(), *cacheGB, *objects, *requests, *alpha, *variability, *runs)
	fmt.Printf("traffic_reduction_ratio %8.4f\n", m.TrafficReductionRatio)
	fmt.Printf("avg_service_delay_s     %8.1f\n", m.AvgServiceDelay)
	fmt.Printf("avg_stream_quality      %8.4f\n", m.AvgStreamQuality)
	fmt.Printf("total_added_value       %8.1f\n", m.TotalAddedValue)
	fmt.Printf("hit_ratio               %8.4f\n", m.HitRatio)
	fmt.Printf("measured_requests       %8d\n", m.Requests)
	return nil
}

// estimatorByName builds the -estimator value; an out-of-range
// parameter is sim's ErrBadConfig, prefixed with the flag that set it.
func estimatorByName(name string, ewmaAlpha, e float64) (sim.Estimator, error) {
	var (
		est  sim.Estimator
		from string // the flag that sets est's parameter
	)
	switch name {
	case "oracle":
		return nil, nil // sim.Config.Estimator: nil is the oracle mean
	case "ewma":
		est, from = sim.EWMA{Alpha: ewmaAlpha}, "ewma-alpha"
	case "underestimate":
		est, from = sim.Underestimate{E: e}, "e"
	default:
		return nil, fmt.Errorf("unknown estimator %q", name)
	}
	if err := est.Validate(); err != nil {
		return nil, fmt.Errorf("-%s: %w", from, err)
	}
	return est, nil
}
