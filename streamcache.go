// Package streamcache is a from-scratch reproduction of "Accelerating
// Internet Streaming Media Delivery using Network-Aware Partial Caching"
// (Jin, Bestavros, Iyengar; ICDCS 2002). It provides:
//
//   - the paper's cache-management algorithms (IF, PB, IB, the Hybrid
//     under-estimation spectrum, the value-based PB-V/IB-V variants, and
//     LRU/LFU baselines) over a byte-granular partial-caching cache;
//   - the offline optimal placements of Sections 2.3 and 2.6;
//   - GISMO-style workload synthesis (Table 1), NLANR-style bandwidth
//     models and estimators (Section 3.1, Figures 2-4), and the
//     simulation harness that reproduces Figures 5-12;
//   - a live HTTP streaming proxy prototype with joint cache+origin
//     delivery (Figure 1); and
//   - the optimal smoothing algorithm for VBR content the paper assumes.
//
// This file re-exports the stable public API; implementation lives under
// internal/. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for paper-vs-measured results.
package streamcache

import (
	"math/rand"
	"time"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/proxy"
	"streamcache/internal/sim"
	"streamcache/internal/smoothing"
	"streamcache/internal/trace"
	"streamcache/internal/workload"
)

// Core cache types.
type (
	// Object describes one streaming media object as the cache sees it.
	Object = core.Object
	// AccessStats is the per-object frequency/recency bookkeeping.
	AccessStats = core.AccessStats
	// Policy decides utility and prefix targets for cached objects.
	Policy = core.Policy
	// Cache is the partial-caching proxy cache (Section 2.4 machinery).
	Cache = core.Cache
	// CacheOption configures optional cache behavior.
	CacheOption = core.Option
	// AccessResult reports what one cache access observed and caused.
	AccessResult = core.AccessResult
	// Victim records bytes evicted from one object during an access.
	Victim = core.Victim
	// CachePlacement is a snapshot of one cached object.
	CachePlacement = core.Placement
)

// Workload types.
type (
	// WorkloadConfig parameterizes synthetic workload generation
	// (zero values default to the paper's Table 1).
	WorkloadConfig = workload.Config
	// Workload is a generated object catalog plus request trace.
	Workload = workload.Workload
	// WorkloadObject is one object of a generated workload.
	WorkloadObject = workload.Object
	// WorkloadRequest is one client access of a generated workload.
	WorkloadRequest = workload.Request
)

// Bandwidth types.
type (
	// BandwidthModel draws per-path mean bandwidths.
	BandwidthModel = bandwidth.Model
	// ConstantBandwidth gives every path the same bandwidth.
	ConstantBandwidth = bandwidth.Constant
	// EmpiricalBandwidth is a piecewise-linear-CDF distribution.
	EmpiricalBandwidth = bandwidth.Empirical
	// CDFPoint is one control point of an empirical CDF.
	CDFPoint = bandwidth.CDFPoint
	// Variability draws sample-to-mean bandwidth ratios.
	Variability = bandwidth.Variability
	// NoVariation is the constant-bandwidth assumption (ratio 1).
	NoVariation = bandwidth.NoVariation
	// LognormalRatio draws mean-1 lognormal ratios.
	LognormalRatio = bandwidth.LognormalRatio
	// NetworkPath pairs a mean bandwidth with a variability process.
	NetworkPath = bandwidth.Path
	// BandwidthEstimator produces the b_i estimates policies consume.
	BandwidthEstimator = bandwidth.Estimator
	// EWMA is the passive bandwidth estimator of Section 2.7.
	EWMA = bandwidth.EWMA
	// StaticEstimator always reports a fixed bandwidth (oracle).
	StaticEstimator = bandwidth.Static
	// Underestimator scales another estimator by a factor e.
	Underestimator = bandwidth.Underestimator
	// SeriesConfig parameterizes a synthetic path time series (Fig 4).
	SeriesConfig = bandwidth.SeriesConfig
	// SeriesSample is one point of a bandwidth time series.
	SeriesSample = bandwidth.SeriesSample
	// PresetPath names one of the paper's measured paths.
	PresetPath = bandwidth.PresetPath
)

// The three measured paths of Figure 4.
const (
	PathINRIA    = bandwidth.PathINRIA
	PathTaiwan   = bandwidth.PathTaiwan
	PathHongKong = bandwidth.PathHongKong
)

// Simulation types.
type (
	// SimConfig parameterizes one simulation experiment.
	SimConfig = sim.Config
	// SimMetrics are the Section 3.3 performance measures.
	SimMetrics = sim.Metrics
	// EstimatorFactory builds per-path estimators for simulations.
	EstimatorFactory = sim.EstimatorFactory
	// SimArena memoizes compiled replay tapes (trace columns, path
	// means, per-request bandwidth draws) across sweeps.
	SimArena = sim.Arena
)

// Smoothing types.
type (
	// SmoothingSchedule is a piecewise-CBR transmission plan.
	SmoothingSchedule = smoothing.Schedule
	// SmoothingSegment is one constant-rate run of a schedule.
	SmoothingSegment = smoothing.Segment
)

// Proxy prototype types.
type (
	// ProxyCatalog is the shared object directory of the prototype.
	ProxyCatalog = proxy.Catalog
	// ProxyMeta describes one object served by the origin.
	ProxyMeta = proxy.Meta
	// OriginServer is the rate-limited HTTP origin.
	OriginServer = proxy.Origin
	// AcceleratorProxy is the joint-delivery caching proxy.
	AcceleratorProxy = proxy.Proxy
	// ProxyStats counts proxy activity.
	ProxyStats = proxy.Stats
	// FetchResult captures one client download with its arrival curve.
	FetchResult = proxy.FetchResult
)

// Trace tooling types.
type (
	// TraceEntry is one Squid-format access log line.
	TraceEntry = trace.Entry
	// TraceGenConfig parameterizes synthetic log generation.
	TraceGenConfig = trace.GenConfig
	// TraceAnalysis holds bandwidth samples extracted from a log.
	TraceAnalysis = trace.Analysis
)

// NewCache builds a partial-caching cache with the given capacity in
// bytes and replacement policy.
func NewCache(capacity int64, policy Policy, opts ...CacheOption) (*Cache, error) {
	return core.New(capacity, policy, opts...)
}

// WithWholeObjectEviction switches eviction from byte-granular prefix
// shrinking to whole-object removal (ablation mode).
func WithWholeObjectEviction(on bool) CacheOption {
	return core.WithWholeObjectEviction(on)
}

// NewIF returns Integral Frequency-based caching (whole objects,
// hottest first).
func NewIF() Policy { return core.NewIF() }

// NewPB returns Partial Bandwidth-based caching (Sections 2.3-2.4).
func NewPB() Policy { return core.NewPB() }

// NewIB returns Integral Bandwidth-based caching (Section 2.5).
func NewIB() Policy { return core.NewIB() }

// NewHybrid returns the estimator-e policy spanning IB (e=0) to PB (e=1).
func NewHybrid(e float64) (Policy, error) { return core.NewHybrid(e) }

// NewPBV returns Partial Bandwidth-Value-based caching (Section 2.6).
func NewPBV() Policy { return core.NewPBV() }

// NewIBV returns Integral Bandwidth-Value-based caching (Section 2.6).
func NewIBV() Policy { return core.NewIBV() }

// NewHybridV returns the value-objective estimator-e policy (Figure 12).
func NewHybridV(e float64) (Policy, error) { return core.NewHybridV(e) }

// NewLRU returns the Least Recently Used baseline.
func NewLRU() Policy { return core.NewLRU() }

// NewLFU returns the Least Frequently Used baseline.
func NewLFU() Policy { return core.NewLFU() }

// NewGDS returns classic GreedyDual-Size with uniform retrieval cost.
// GDS-family policies carry aging state: build one per cache (use
// SimConfig.PolicyFactory in simulations).
func NewGDS() Policy { return core.NewGDS() }

// NewGDSBandwidth returns GreedyDual-Size with the network retrieval
// cost size/bandwidth.
func NewGDSBandwidth() Policy { return core.NewGDSBandwidth() }

// NewGDSP returns the popularity-aware GreedyDual-Size of Jin &
// Bestavros [17] with the network retrieval cost.
func NewGDSP() Policy { return core.NewGDSP() }

// PolicyByName constructs a policy from its short name (IF, PB, IB,
// PB-V, IB-V, LRU, LFU, HYBRID, HYBRID-V); hybrids take the estimator e.
func PolicyByName(name string, e float64) (Policy, error) {
	return core.PolicyByName(name, e)
}

// OptimalPlacement computes the Section 2.3 optimal static allocation
// (fractional knapsack on lambda_i/b_i) for known request rates.
func OptimalPlacement(objs []Object, lambda, bw []float64, capacity int64) (map[int]int64, error) {
	return core.OptimalPlacement(objs, lambda, bw, capacity)
}

// OptimalValuePlacement computes the Section 2.6 greedy value-maximizing
// placement and its achieved value rate.
func OptimalValuePlacement(objs []Object, lambda, bw []float64, capacity int64) (map[int]int64, float64, error) {
	return core.OptimalValuePlacement(objs, lambda, bw, capacity)
}

// ExpectedDelay returns the request-weighted mean startup delay of a
// placement under constant bandwidth (the Section 2.2 objective).
func ExpectedDelay(objs []Object, lambda, bw []float64, placement map[int]int64) (float64, error) {
	return core.ExpectedDelay(objs, lambda, bw, placement)
}

// StartupDelay returns the client-perceived delay before playout can
// begin: [S - T*b - x]+ / b (Section 2.2).
func StartupDelay(obj Object, cachedBytes int64, bw float64) float64 {
	return core.StartupDelay(obj, cachedBytes, bw)
}

// StreamQuality returns the fraction of the full stream immediate
// playout can sustain (Section 3.3).
func StreamQuality(obj Object, cachedBytes int64, bw float64) float64 {
	return core.StreamQuality(obj, cachedBytes, bw)
}

// ImmediatelyServable reports whether cache and origin jointly support
// immediate full-quality playout (Section 2.6).
func ImmediatelyServable(obj Object, cachedBytes int64, bw float64) bool {
	return core.ImmediatelyServable(obj, cachedBytes, bw)
}

// GenerateWorkload builds a synthetic workload; zero config fields take
// the paper's Table 1 defaults.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	return workload.Generate(cfg)
}

// NLANRBandwidth reconstructs the base bandwidth distribution of the
// NLANR proxy logs (Figure 2).
func NLANRBandwidth() *EmpiricalBandwidth { return bandwidth.NLANR() }

// NewEmpiricalBandwidth builds a distribution from CDF control points.
func NewEmpiricalBandwidth(points []CDFPoint) (*EmpiricalBandwidth, error) {
	return bandwidth.NewEmpirical(points)
}

// BandwidthFromSamples builds an empirical distribution from raw
// throughput samples (e.g. from an analyzed proxy log).
func BandwidthFromSamples(samples []float64) (*EmpiricalBandwidth, error) {
	return bandwidth.FromSamples(samples)
}

// NLANRVariability returns the high sample-to-mean variability of the
// NLANR logs (Figure 3).
func NLANRVariability() LognormalRatio { return bandwidth.NLANRVariability() }

// MeasuredVariability returns the lower variability of the measured
// Internet paths (Figure 4).
func MeasuredVariability() LognormalRatio { return bandwidth.MeasuredVariability() }

// NewLognormalRatio builds a mean-1 lognormal ratio model with the given
// sigma.
func NewLognormalRatio(sigma float64) (LognormalRatio, error) {
	return bandwidth.NewLognormalRatio(sigma)
}

// GenerateBandwidthSeries produces a synthetic path bandwidth time
// series (Figure 4 style).
func GenerateBandwidthSeries(cfg SeriesConfig, rng *rand.Rand, n int) ([]SeriesSample, error) {
	return bandwidth.GenerateSeries(cfg, rng, n)
}

// PresetSeriesConfig returns the series configuration modeled on one of
// the paper's measured paths.
func PresetSeriesConfig(p PresetPath) (SeriesConfig, error) {
	return bandwidth.PresetSeriesConfig(p)
}

// NewEWMA builds a passive EWMA bandwidth estimator (Section 2.7).
func NewEWMA(alpha float64) (*EWMA, error) { return bandwidth.NewEWMA(alpha) }

// PadhyeThroughput returns the TCP throughput predicted by the model of
// Padhye et al., the basis for active bandwidth measurement.
func PadhyeThroughput(mss int, rtt, rto time.Duration, loss float64, ackedPerACK int) (float64, error) {
	return bandwidth.PadhyeThroughput(mss, rtt, rto, loss, ackedPerACK)
}

// MathisThroughput returns the inverse-sqrt(loss) TCP throughput model.
func MathisThroughput(mss int, rtt time.Duration, loss float64) (float64, error) {
	return bandwidth.MathisThroughput(mss, rtt, loss)
}

// RunSimulation executes one experiment and returns metrics averaged
// over the configured seeded runs.
func RunSimulation(cfg SimConfig) (SimMetrics, error) { return sim.Run(cfg) }

// OracleEstimator models a cache that knows each path's mean bandwidth.
func OracleEstimator(path int, pathMean float64) BandwidthEstimator {
	return sim.OracleEstimator(path, pathMean)
}

// NewSimArena builds a replay-tape memoization arena. Share one arena
// (via SimConfig.Arena) across the sweep points of an experiment so
// identical (workload config, seed) inputs are compiled once; results
// are bit-identical with or without it.
func NewSimArena() *SimArena { return sim.NewArena() }

// UnderestimatingOracle scales the oracle estimate by e (Figures 9, 12).
func UnderestimatingOracle(e float64) EstimatorFactory {
	return sim.UnderestimatingOracle(e)
}

// EWMAEstimator builds passive per-path estimators for simulations.
func EWMAEstimator(alpha float64) EstimatorFactory { return sim.EWMAEstimator(alpha) }

// ActiveProbeEstimator builds active Padhye-model probers for
// simulations, with the given relative measurement noise (Section 6
// future work: active measurement integrated into proxy caches).
func ActiveProbeEstimator(jitter float64) EstimatorFactory {
	return sim.ActiveProbeEstimator(jitter)
}

// Smooth computes the optimal (minimum-peak, minimum-variability)
// transmission schedule for VBR frames and a client buffer.
func Smooth(frames []float64, buffer float64) (*SmoothingSchedule, error) {
	return smoothing.Smooth(frames, buffer)
}

// MinimalPeakBound returns the lower bound on the peak rate of any
// feasible schedule; Smooth always achieves it.
func MinimalPeakBound(frames []float64, buffer float64) (float64, error) {
	return smoothing.MinimalPeakBound(frames, buffer)
}

// NewProxyCatalog builds the shared object directory of the prototype.
func NewProxyCatalog(objects []ProxyMeta) (*ProxyCatalog, error) {
	return proxy.NewCatalog(objects)
}

// NewOriginServer builds a rate-limited HTTP origin over a catalog
// (pathRate in bytes/s; 0 = unlimited).
func NewOriginServer(catalog *ProxyCatalog, pathRate float64) (*OriginServer, error) {
	return proxy.NewOrigin(catalog, pathRate)
}

// NewAcceleratorProxy builds the joint-delivery caching proxy in front
// of the origin at originURL.
func NewAcceleratorProxy(catalog *ProxyCatalog, cache *Cache, originURL string) (*AcceleratorProxy, error) {
	return proxy.NewProxy(catalog, cache, originURL)
}

// Fetch downloads a URL recording the arrival curve, for startup-delay
// measurement.
func Fetch(url string) (*FetchResult, error) { return proxy.Fetch(url) }

// ObjectContent deterministically generates the bytes of prototype
// object id in [offset, offset+length).
func ObjectContent(id int, offset, length int64) []byte {
	return proxy.Content(id, offset, length)
}

// ObjectContentSHA256 returns the expected digest of a prototype object.
func ObjectContentSHA256(id int, size int64) string {
	return proxy.ContentSHA256(id, size)
}

// GenerateTrace synthesizes a Squid-format proxy log whose miss
// throughput follows the configured bandwidth model (Section 3.1
// substitution; see DESIGN.md).
func GenerateTrace(cfg TraceGenConfig) ([]TraceEntry, error) { return trace.Generate(cfg) }

// AnalyzeTrace extracts bandwidth samples from log entries following
// Section 3.1 (missed requests larger than minBytes; 0 means the
// paper's 200 KB threshold).
func AnalyzeTrace(entries []TraceEntry, minBytes int64) (*TraceAnalysis, error) {
	return trace.Analyze(entries, minBytes)
}
