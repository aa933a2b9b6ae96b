// Command mediasim runs one partial-caching simulation experiment and
// prints the Section 3.3 metrics, or streams an adaptively refined
// single-axis sweep.
//
// Example: reproduce one Figure 5 point at full paper scale:
//
//	mediasim -policy PB -cache-gb 40 -objects 5000 -requests 100000 -runs 10
//
// Or a Figure 9 point (estimator e = 0.5 under NLANR variability):
//
//	mediasim -policy HYBRID -e 0.5 -variability nlanr -cache-gb 40
//
// Sweep mode streams rows (CSV or JSONL) to -out as each point
// completes, refining the axis where the metric gradient is steepest:
//
//	mediasim -sweep e -sweep-points 0,0.25,0.5,0.75,1 -refine 6 -format jsonl -out e.jsonl
//
// Sweeps shard across processes and resume after interruption (see
// OPERATIONS.md); shard outputs must be JSONL so experiments.MergeShards
// (or figures -merge) can reassemble them by global row index:
//
//	mediasim -sweep e -shard 0/2 -format jsonl -out e.0.jsonl -journal e.0.journal
//	mediasim -sweep e -shard 0/2 -format jsonl -out e.0.jsonl -journal e.0.journal -resume
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/experiments"
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

// profileTo starts CPU profiling and arranges a heap snapshot, returning
// a stop function to defer. Empty paths disable the corresponding
// profile.
func profileTo(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mem profile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "mem profile:", err)
			}
		}
	}, nil
}

func run() error {
	var (
		policyName  = flag.String("policy", "PB", "policy: IF, PB, IB, PB-V, IB-V, LRU, LFU, HYBRID, HYBRID-V")
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
		sweepAxis   = flag.String("sweep", "", "stream an adaptive sweep over an axis: e, sigma, or cache")
		sweepPoints = flag.String("sweep-points", "", "comma-separated coarse grid for -sweep (default: scale default)")
		refine      = flag.Int("refine", -1, "extra adaptive sweep points (-1 = scale default)")
		format      = flag.String("format", "csv", "sweep output format: csv or jsonl")
		outPath     = flag.String("out", "", "sweep output file (default stdout)")
		shard       = flag.String("shard", "", "emit only this shard of the sweep, as index/count (e.g. 0/2); requires -format jsonl")
		journalPath = flag.String("journal", "", "checkpoint completed sweep rows to this JSONL journal")
		resume      = flag.Bool("resume", false, "skip sweep rows already recorded in -journal")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profileTo(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkMode(*sweepAxis != "", set); err != nil {
		return err
	}
	if *sweepAxis != "" {
		return runSweep(sweepConfig{
			axis: *sweepAxis, points: *sweepPoints,
			objects: *objects, requests: *requests, runs: *runs,
			refine: *refine, parallel: *parallel, seed: *seed,
			format: *format, outPath: *outPath,
			shard: *shard, journal: *journalPath, resume: *resume,
		})
	}
	policy, err := core.PolicyByName(*policyName, *e)
	if err != nil {
		return err
	}
	variation, err := variabilityByName(*variability)
	if err != nil {
		return err
	}
	estimators, err := estimatorByName(*estimator, *ewmaAlpha, *e)
	if err != nil {
		return err
	}
	var opts []core.Option
	if *wholeEvict {
		opts = append(opts, core.WithWholeObjectEviction(true))
	}
	cfg := sim.Config{
		Workload: workload.Config{
			NumObjects:  *objects,
			NumRequests: *requests,
			ZipfAlpha:   *alpha,
		},
		CacheBytes:   units.GBytes(*cacheGB),
		Policy:       policy,
		CacheOptions: opts,
		Variation:    variation,
		Estimators:   estimators,
		Runs:         *runs,
		Seed:         *seed,
		Parallelism:  *parallel,
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

// The flags only one of the two modes reads. Refined sweeps fix the
// policy, network model and cache size per axis (see
// internal/experiments/refine.go), and a single simulation writes no
// table, so each mode would silently ignore the other's.
var (
	singleOnlyFlags = []string{"policy", "e", "cache-gb", "alpha", "variability", "estimator", "ewma-alpha", "whole-eviction"}
	sweepOnlyFlags  = []string{"sweep-points", "refine", "format", "out", "shard", "journal", "resume"}
)

// checkMode refuses the explicitly set flags (set: their names) that
// the chosen mode does not read; rejecting them beats ignoring them.
func checkMode(sweep bool, set []string) error {
	ignored, hint := sweepOnlyFlags, "%s: sweep mode only; add -sweep"
	if sweep {
		ignored, hint = singleOnlyFlags, "sweep mode fixes the policy/network/cache per axis; drop %s"
	}
	var bad []string
	for _, name := range set {
		if slices.Contains(ignored, name) {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf(hint, strings.Join(bad, ", "))
}

// sweepConfig carries the sweep-mode flag set.
type sweepConfig struct {
	axis, points            string
	objects, requests, runs int
	refine, parallel        int
	seed                    int64
	format, outPath         string
	shard, journal          string
	resume                  bool
}

// runSweep streams one adaptively refined axis sweep to the chosen
// output, row by row as points complete, optionally sharded across
// processes and checkpointed for resume.
func runSweep(c sweepConfig) error {
	s := experiments.SmallScale()
	s.Objects = c.objects
	s.Requests = c.requests
	s.Runs = c.runs
	s.Seed = c.seed
	s.Parallelism = c.parallel
	if c.refine >= 0 {
		s.RefineBudget = c.refine
	}
	if c.points != "" {
		grid, err := parseGrid(c.points)
		if err != nil {
			return err
		}
		switch c.axis {
		case "e":
			s.ESweep = grid
		case "sigma":
			s.SigmaSweep = grid
		case "cache":
			s.CacheFractions = grid
		}
	}
	key, ok := map[string]string{
		"e":     "refined-e",
		"sigma": "refined-sigma",
		"cache": "refined-cache",
	}[c.axis]
	if !ok {
		return fmt.Errorf("unknown sweep axis %q (want e, sigma, or cache)", c.axis)
	}
	sh, err := experiments.ParseShard(c.shard)
	if err != nil {
		return err
	}
	s.Shard = sh
	if sh.Count > 1 && c.format != "jsonl" {
		return fmt.Errorf("sharded sweeps need -format jsonl (CSV rows carry no index to merge on)")
	}
	if c.resume && c.journal == "" {
		return fmt.Errorf("-resume needs -journal to name the checkpoint file")
	}

	var w io.Writer = os.Stdout
	if c.outPath != "" {
		f, err := os.Create(c.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	var sink experiments.RowSink
	switch c.format {
	case "csv":
		sink = experiments.NewCSVSink(w)
	case "jsonl":
		sink = experiments.NewJSONLSink(w)
	default:
		return fmt.Errorf("unknown sweep format %q (want csv or jsonl)", c.format)
	}
	if c.journal != "" {
		var j *experiments.Journal
		if c.resume {
			j, err = experiments.ResumeJournal(c.journal, s.Fingerprint())
		} else {
			j, err = experiments.CreateJournal(c.journal, s.Fingerprint())
		}
		if err != nil {
			return err
		}
		defer j.Close()
		if c.resume {
			s.Resume = j
		}
		sink = experiments.MultiSink{sink, experiments.NewJournalSink(j)}
	}
	return experiments.Stream(key, s, sink)
}

// parseGrid parses a comma-separated, strictly increasing float list.
func parseGrid(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	grid := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad sweep point %q: %w", p, err)
		}
		if len(grid) > 0 && v <= grid[len(grid)-1] {
			return nil, fmt.Errorf("sweep points must be strictly increasing, got %q", s)
		}
		grid = append(grid, v)
	}
	if len(grid) < 2 {
		return nil, fmt.Errorf("sweep needs at least 2 coarse points, got %q", s)
	}
	return grid, nil
}

func variabilityByName(name string) (bandwidth.Variability, error) {
	switch name {
	case "none", "constant":
		return bandwidth.NoVariation{}, nil
	case "nlanr":
		return bandwidth.NLANRVariability(), nil
	case "measured":
		return bandwidth.MeasuredVariability(), nil
	case "inria":
		return bandwidth.INRIAVariability(), nil
	case "fareast":
		return bandwidth.FarEastVariability(), nil
	default:
		return nil, fmt.Errorf("unknown variability %q", name)
	}
}

func estimatorByName(name string, ewmaAlpha, e float64) (sim.EstimatorFactory, error) {
	switch name {
	case "oracle":
		return sim.OracleEstimator, nil
	case "ewma":
		if ewmaAlpha <= 0 || ewmaAlpha > 1 {
			return nil, fmt.Errorf("ewma-alpha %v outside (0,1]", ewmaAlpha)
		}
		return sim.EWMAEstimator(ewmaAlpha), nil
	case "underestimate":
		return sim.UnderestimatingOracle(e), nil
	default:
		return nil, fmt.Errorf("unknown estimator %q", name)
	}
}
