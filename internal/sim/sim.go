package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/par"
	"streamcache/internal/workload"
)

// ErrBadConfig reports an invalid simulation configuration.
var ErrBadConfig = errors.New("sim: invalid configuration")

// Estimator selects how the cache estimates each origin path's
// bandwidth (Section 2.7). Nil is the oracle: the cache knows each
// path's mean, read straight from the tape. The others are EWMA,
// Underestimate and ActiveProbe, a closed set of comparable values, so
// a Config holding any of them keys a map.
type Estimator interface {
	// Validate reports ErrBadConfig for a parameter outside its range.
	Validate() error
	// prices returns dst refilled with the bandwidth the cache prices
	// each request of rp at: a column indexed per request, or per object
	// when every request of an object is priced alike. Request i, for
	// object o, observes observed.at(i, o) once it is served. Private
	// randomness derives from the path index (== object ID): two paths
	// can share a mean, never an index.
	prices(dst []float64, rp *tape, observed column) (column, error)
	// observes reports whether prices reads observed: only then does a
	// request's variability enter the cache's trajectory (RunGroup).
	observes() bool
}

// EWMA is the passive estimator of Section 2.7: it averages the
// throughput of completed transfers with smoothing factor Alpha, in
// (0, 1].
type EWMA struct{ Alpha float64 }

func (e EWMA) Validate() error {
	if !(e.Alpha > 0 && e.Alpha <= 1) { // NaN fails both
		return fmt.Errorf("%w: EWMA Alpha=%v, want in (0,1]", ErrBadConfig, e.Alpha)
	}
	return nil
}

// The EWMA column prices each request at the average of what the
// earlier requests of its object observed; an object's first request
// finds no estimate and is priced at 0.
func (e EWMA) prices(dst []float64, rp *tape, observed column) (column, error) {
	fresh, err := bandwidth.NewEWMA(e.Alpha)
	if err != nil {
		return column{}, err
	}
	paths := slices.Repeat([]bandwidth.EWMA{*fresh}, len(rp.objs))
	dst = fit(dst, len(rp.obj))
	for i, o := range rp.obj {
		dst[i] = paths[o].Estimate()
		paths[o].Observe(observed.at(i, o))
	}
	return column{inst: dst, perRequest: true}, nil
}

func (EWMA) observes() bool { return true }

// Underestimate is the oracle scaled by the factor E, in [0, 1]: the
// over-provisioning heuristic swept in Figures 9 and 12.
type Underestimate struct{ E float64 }

func (u Underestimate) Validate() error {
	if !(u.E >= 0 && u.E <= 1) { // NaN fails both
		return fmt.Errorf("%w: Underestimate E=%v, want in [0,1]", ErrBadConfig, u.E)
	}
	return nil
}

func (u Underestimate) prices(dst []float64, rp *tape, _ column) (column, error) {
	dst = fit(dst, len(rp.means))
	for o, mean := range rp.means {
		dst[o] = u.E * mean
	}
	return column{inst: dst}, nil
}

func (Underestimate) observes() bool { return false }

// Default transport parameters for the active-probing model.
const (
	probeMSS = 1460
	probeRTT = 100 * time.Millisecond
	probeRTO = 400 * time.Millisecond
)

// ActiveProbe is the active-measurement alternative of Section 2.7:
// each path gets the loss rate at which, by the Padhye model, a
// TCP-friendly transport with round-trip time probeRTT achieves the
// path's true mean bandwidth, and before every transfer the cache
// probes the path — measures RTT and loss, each with relative noise
// Jitter in [0, 1) — and prices it at the Padhye throughput of what it
// measured. This is the Section 6 "integrate active bandwidth
// measurement into proxy caches" direction.
type ActiveProbe struct{ Jitter float64 }

func (p ActiveProbe) Validate() error {
	if !(p.Jitter >= 0 && p.Jitter < 1) { // NaN fails both
		return fmt.Errorf("%w: ActiveProbe Jitter=%v, want in [0,1)", ErrBadConfig, p.Jitter)
	}
	return nil
}

// The probe column prices the k-th request of a path at the path's k-th
// probe. A path's first probe must succeed; a later one that fails
// keeps the previous estimate, as active measurement is best-effort.
func (p ActiveProbe) prices(dst []float64, rp *tape, _ column) (column, error) {
	type path struct {
		rng       *rand.Rand // the path's measurement noise; nil before its first probe
		loss, est float64
	}
	// noisy is one measurement of v: one normal draw of rng.
	noisy := func(rng *rand.Rand, v float64) float64 {
		f := 1 + float64(p.Jitter*rng.NormFloat64())
		if f < 0.1 {
			f = 0.1
		}
		return v * f
	}
	paths := make([]path, len(rp.objs))
	dst = fit(dst, len(rp.obj))
	for i, o := range rp.obj {
		ph := &paths[o]
		first := ph.rng == nil
		if first {
			mean := max(rp.means[o], 1024)
			loss, err := bandwidth.PadhyeLossForRate(mean, probeMSS, probeRTT, probeRTO, 1)
			if err != nil {
				return column{}, fmt.Errorf("active probe conditions: %w", err)
			}
			// The seed mixes the path index with the mean, so two paths
			// that happen to share a mean bandwidth still draw
			// independent measurement-noise streams.
			ph.rng = rand.New(rand.NewSource(SplitSeed(int64(math.Float64bits(mean))^0x41C64E6D, int64(o))))
			ph.loss = loss
		}
		rtt := time.Duration(noisy(ph.rng, float64(probeRTT)))
		loss := noisy(ph.rng, ph.loss)
		if loss >= 1 {
			loss = 0.99
		}
		if est, err := bandwidth.PadhyeThroughput(probeMSS, rtt, probeRTO, loss, 1); err == nil {
			ph.est = est
		} else if first {
			return column{}, fmt.Errorf("active probe: %w", err)
		}
		dst[i] = ph.est
	}
	return column{inst: dst, perRequest: true}, nil
}

func (ActiveProbe) observes() bool { return false }

// Config parameterizes one experiment.
type Config struct {
	// Workload configures the synthetic access trace (defaults: Table 1).
	Workload workload.Config
	// CacheBytes is the proxy cache capacity.
	CacheBytes int64
	// Policy is the replacement policy under test. With Runs > 1 the
	// same value drives parallel runs, so its Utility and Target must be
	// pure, as every built-in policy's are (GreedyDual's aging value
	// lives in each run's cache). Policy and Variation key the arena,
	// so each must be a comparable value (else ErrBadConfig).
	Policy core.Policy
	// WholeObjectEviction evicts whole objects instead of prefix bytes.
	WholeObjectEviction bool
	// Variation draws per-request sample-to-mean ratios (default: none).
	// Each path's mean is the tape's, drawn from NLANR (Figure 2).
	Variation bandwidth.Variability
	// Estimator prices each path's bandwidth. Nil is the oracle mean
	// (the paper's default assumption).
	Estimator Estimator
	// Runs averages this many independently seeded runs (default 1).
	Runs int
	// Seed is the base seed; run r uses SplitSeed(Seed, r).
	Seed int64
	// Parallelism bounds the worker goroutines executing runs (default
	// runtime.GOMAXPROCS(0)). Because every run derives its own random
	// streams from SplitSeed(Seed, run) and results aggregate in run
	// order, Metrics are bit-identical for every Parallelism value.
	Parallelism int
	// Arena, when set, memoizes the compiled replay tape — trace
	// columns, per-path mean bandwidths — and the per-request bandwidth
	// draws across runs: share one arena across all the sweep points of
	// an experiment so identical (config, seed) inputs are compiled once
	// instead of at every point. Every arena value is a pure function of
	// its key, so Metrics are bit-identical whichever arena serves them
	// (regression-tested). Nil gives the call an arena of its own,
	// dropped when Run returns. Run and RunGroup never read the Metrics
	// an arena keeps for Arena.ScorePending: they replay what they are
	// asked.
	Arena *Arena
}

func (c Config) normalize() (Config, error) {
	c, err := c.withDefaults()
	if err != nil || c.Arena != nil {
		return c, err
	}
	// No arena to share: the call gets one of its own, so there is one
	// replay path; it is garbage when the call returns.
	c.Arena = NewArena()
	return c, nil
}

// withDefaults is normalize without the arena: cfg validated, with
// every unset field at its default.
func (c Config) withDefaults() (Config, error) {
	if c.CacheBytes < 0 {
		return c, fmt.Errorf("%w: CacheBytes=%d", ErrBadConfig, c.CacheBytes)
	}
	if c.Policy == nil {
		return c, fmt.Errorf("%w: nil Policy", ErrBadConfig)
	}
	if !keyable(c) {
		return c, fmt.Errorf("%w: Policy %T and Variation %T must be comparable values: every configuration keys the arena", ErrBadConfig, c.Policy, c.Variation)
	}
	if c.Policy == core.NewLFU() {
		c.Policy = core.NewIF() // the same Utility and Target under another name (TestLFUIsIF)
	}
	w, err := c.Workload.Normalize()
	if err != nil {
		return c, err
	}
	c.Workload = w
	if c.Variation == nil {
		c.Variation = bandwidth.NoVariation{}
	}
	if c.Runs == 0 {
		c.Runs = 1
	}
	if c.Runs < 0 {
		return c, fmt.Errorf("%w: Runs=%d", ErrBadConfig, c.Runs)
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Parallelism < 0 {
		return c, fmt.Errorf("%w: Parallelism=%d", ErrBadConfig, c.Parallelism)
	}
	if c.Estimator != nil {
		if err := c.Estimator.Validate(); err != nil {
			return c, err
		}
		if !core.ReadsBandwidth(c.Policy) {
			c.Estimator = nil // no estimate changes what the policy caches
		}
	}
	return c, nil
}

// warmup is how many of a tape's n requests warm the cache before
// metrics are recorded: the first half, as in Section 4.1.
func warmup(n int) int { return n / 2 }

// observes reports whether c's cache reads what each request got.
func (c Config) observes() bool { return c.Estimator != nil && c.Estimator.observes() }

// Metrics are the Section 3.3 performance measures, averaged over the
// measurement phase of all runs, and where each watched byte was
// served from: the four byte fractions partition 1. A flat run is one
// edge and no upper tier, so its edge fraction is its traffic
// reduction and its peer and parent fractions are 0.
type Metrics struct {
	Requests              int     // measured requests per run
	TrafficReductionRatio float64 // bytes served from cache / total requested bytes
	AvgServiceDelay       float64 // seconds
	AvgStreamQuality      float64 // fraction in [0, 1]
	TotalAddedValue       float64 // dollars earned from immediately-servable requests
	HitRatio              float64 // fraction of requests finding any cached prefix
	EvictedBytes          int64   // eviction churn during measurement
	EdgeByteFrac          float64 // watched bytes served by the client's edge cache
	PeerByteFrac          float64 // ... by a peer owner's cache
	ParentByteFrac        float64 // ... by the parent's cache
	OriginByteFrac        float64 // ... over the origin path
}

// Run executes the experiment and returns metrics averaged over
// cfg.Runs seeded runs. Runs are independent and fan out over a worker
// pool bounded by cfg.Parallelism; each run's random streams derive
// from SplitSeed(cfg.Seed, run) and results are aggregated in run
// order, so Run returns bit-identical Metrics for a given configuration
// regardless of worker count or goroutine scheduling. It is RunGroup's
// one-member case.
func Run(cfg Config) (Metrics, error) {
	ms, err := RunGroup(cfg, []Member{{cfg.CacheBytes, cfg.Variation}})
	if err != nil {
		return Metrics{}, err
	}
	return ms[0], nil
}

// averageRuns fans cfg.Runs seeded runs over the worker pool, fails on
// the first error in run order, sums the results in run order with add
// and divides the sum by the run count with over — the fixed order is
// what keeps the average bit-identical at any Parallelism.
func averageRuns[M any](cfg Config, what string, once func(seed int64) (M, error), add func(*M, M), over func(*M, int)) (M, error) {
	results := make([]M, cfg.Runs)
	errs := make([]error, cfg.Runs)
	par.For(cfg.Parallelism, cfg.Runs, func(r int) {
		results[r], errs[r] = once(SplitSeed(cfg.Seed, int64(r)))
	})
	var agg M
	for r, m := range results {
		if errs[r] != nil {
			var zero M
			return zero, fmt.Errorf("sim: %s %d: %w", what, r, errs[r])
		}
		add(&agg, m)
	}
	over(&agg, cfg.Runs)
	return agg, nil
}

func (agg *Metrics) add(m Metrics) {
	agg.Requests += m.Requests
	agg.TrafficReductionRatio += m.TrafficReductionRatio
	agg.AvgServiceDelay += m.AvgServiceDelay
	agg.AvgStreamQuality += m.AvgStreamQuality
	agg.TotalAddedValue += m.TotalAddedValue
	agg.HitRatio += m.HitRatio
	agg.EvictedBytes += m.EvictedBytes
	agg.EdgeByteFrac += m.EdgeByteFrac
	agg.PeerByteFrac += m.PeerByteFrac
	agg.ParentByteFrac += m.ParentByteFrac
	agg.OriginByteFrac += m.OriginByteFrac
}

func (agg *Metrics) over(runs int) {
	n := float64(runs)
	agg.Requests /= runs
	agg.TrafficReductionRatio /= n
	agg.AvgServiceDelay /= n
	agg.AvgStreamQuality /= n
	agg.TotalAddedValue /= n
	agg.HitRatio /= n
	agg.EvictedBytes /= int64(runs)
	agg.EdgeByteFrac /= n
	agg.PeerByteFrac /= n
	agg.ParentByteFrac /= n
	agg.OriginByteFrac /= n
}

// runScratch holds every piece of per-run mutable state — the caches of
// all nodes, the estimate column, the per-column sums and a hierarchy
// run's owner table — reused across runs via scratchPool. Only backing
// storage survives a run: every slice is refilled or cleared before use
// and each pooled cache is Reset to its freshly-constructed state, so
// pooled state can never leak between runs (and results stay
// bit-identical whether or not a pooled buffer was reused — the
// Parallelism 1/2/8 determinism suite exercises both). No slice of it
// aliases the arena (runScratch.estimate).
type runScratch struct {
	caches  []*core.Cache
	sums    []columnSums
	owners  []int32   // per object: its owning edge in a hierarchy run
	prices  []float64 // per request or object: an estimator's prices
	targets []int64   // per request or object: the target at its price (priceTargets)
}

// cache returns the scratch's k-th cache configured exactly as
// core.New(capacity, policy, opts...) would build it (New is Reset on a
// zero Cache), reusing its table storage when an earlier run left one
// behind.
func (s *runScratch) cache(k int, capacity int64, policy core.Policy, opts []core.Option) (*core.Cache, error) {
	for len(s.caches) <= k {
		s.caches = append(s.caches, new(core.Cache))
	}
	return s.caches[k], s.caches[k].Reset(capacity, policy, opts...)
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// cacheOptions sizes the cache tables for the tape's catalog and sets
// the eviction granularity.
func (c Config) cacheOptions(objects int) []core.Option {
	return []core.Option{core.WithExpectedObjects(objects), core.WithWholeObjectEviction(c.WholeObjectEviction)}
}

// priceTargets returns dst refilled with the target under policy of
// each request of rp at its price, clamped to [0, size] as core.Cache
// clamps it, and indexed as price is: per object when price is, so that
// under the oracle estimator, whose price is each path's mean, an
// object's target is computed once per run instead of on each request.
func priceTargets(dst []int64, policy core.Policy, rp *tape, price column) []int64 {
	if !price.perRequest {
		dst = fit(dst, len(rp.objs))
		for o, obj := range rp.objs {
			dst[o] = max(min(policy.Target(obj, price.inst[o]), obj.Size), 0)
		}
		return dst
	}
	dst = fit(dst, len(rp.obj))
	for i, o := range rp.obj {
		obj := rp.objs[o]
		dst[i] = max(min(policy.Target(obj, price.inst[i]), obj.Size), 0)
	}
	return dst
}

// estimate refills s with cfg's estimate column for one replay of rp,
// whose requests observe observed: the bandwidth the cache prices each
// request at and the policy's target at that price, both indexed as
// price.at indexes. The oracle's prices are the tape's path means,
// read in place: they never enter s, whose prices a later run's
// estimator refills.
func (s *runScratch) estimate(cfg Config, rp *tape, observed column) (price column, targets []int64, err error) {
	price = column{inst: rp.means}
	if cfg.Estimator != nil {
		if price, err = cfg.Estimator.prices(s.prices, rp, observed); err != nil {
			return column{}, nil, err
		}
		s.prices = price.inst
	}
	s.targets = priceTargets(s.targets, cfg.Policy, rp, price)
	return price, s.targets, nil
}

// capacityTotals accumulate, in request order, what the measured
// requests of one cache trajectory add up to whatever the bandwidth:
// the bytes served from cache, the requests finding a prefix and the
// bytes evicted.
type capacityTotals struct {
	cached  float64
	hits    int
	evicted int64
}

// columnSums accumulate, in request order, what one bandwidth column
// makes of a trajectory's hit bytes: startup delay, stream quality and
// the value of the immediately servable requests.
type columnSums struct {
	delay, quality, value float64
}

// memberTotals are one member's sums: its trajectory's and its column's.
type memberTotals struct {
	capacityTotals
	columnSums
}

// metrics averages the sums over the requests measured, whose watched
// bytes add up to watched. cached and watched are sums of whole byte
// counts, exact in a float64, so the edge and origin fractions equal a
// one-edge hierarchy run's, which divides the same integers.
func (t memberTotals) metrics(requests int, watched float64) Metrics {
	m := Metrics{Requests: requests, TotalAddedValue: t.value, EvictedBytes: t.evicted}
	if requests > 0 {
		m.AvgServiceDelay = t.delay / float64(requests)
		m.AvgStreamQuality = t.quality / float64(requests)
		m.HitRatio = float64(t.hits) / float64(requests)
	}
	if watched > 0 {
		m.TrafficReductionRatio = t.cached / watched
		m.EdgeByteFrac = m.TrafficReductionRatio
		m.OriginByteFrac = (watched - t.cached) / watched
	}
	return m
}

// replayColumns is the request loop: every request of rp through one
// core.Cache of the given capacity, the trajectory scored once per
// bandwidth column into out[k]. The cache prices each request from the
// run's estimate column and hands its target to AccessWithTarget, whose
// answer is read as values. Unless its estimator observes what each
// request got, the cache never reads a column, so any number of columns
// share the replay; under one that observes, cols must hold exactly the
// one column the run's estimates follow. The three metric calls stay
// written out in the loop, because a method is not inlined and measured
// slower.
//
// A request whose target is 0 under a per-object price column (the
// oracle's, an underestimate's) skips the cache: it finds no bytes and
// evicts none. Such an access to an object the cache does not hold
// changes only that object's freq and last; the heap reads last of
// cached entries only, and freq and last reach no one but the object's
// own later Utility, which matters only when the object is admitted or
// refreshed. Under a per-object column every target of the object is
// that one 0, so it never is, and the skip is exact (the cache never
// holds it, so the access it skips finds it absent). A per-request
// column (EWMA, probing) never skips: a later request of the object may
// be priced at a positive target, and its utility reads freq.
//
// It is the 1-edge, 1-level case of hierarchyRunOnce, and the one loop
// that scores it: HierarchyConfig.withDefaults folds a one-edge,
// one-level point into its flat Config, so hierarchyRunOnce runs only
// clusters, and at one node only as the reference
// TestHierarchySingleNodeMatchesRun pins bit-equal to this loop. The two
// share tape, scratch and target column but stay two loops, because
// folding them is not free: each computes what the other never needs
// (delay, quality and value here; the owner and parent hops and
// per-tier byte counters there), and one merged loop measured slower on
// the figure path's hottest function. DESIGN.md §5a "Targets from
// `sim`" has the timings.
func replayColumns(cfg Config, rp *tape, capacity int64, cols []column, out []Metrics) error {
	scratch := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(scratch)
	opts := cfg.cacheOptions(len(rp.objs))
	cache, err := scratch.cache(0, capacity, cfg.Policy, opts)
	if err != nil {
		return err
	}
	price, targets, err := scratch.estimate(cfg, rp, cols[0])
	if err != nil {
		return err
	}
	scratch.sums = fit(scratch.sums, len(cols))
	sums := scratch.sums
	clear(sums)

	warm := warmup(len(rp.obj))
	var (
		a       capacityTotals
		watched float64
	)
	for i, o := range rp.obj {
		obj, j := rp.objs[o], int(o)
		if price.perRequest {
			j = i
		}
		var hit, evicted int64
		if targets[j] > 0 || price.perRequest {
			hit, _, _, evicted, _ = cache.AccessWithTarget(obj, targets[j], price.inst[j], rp.time[i])
		}
		if i < warm {
			continue
		}
		for k := range cols {
			bw, s := cols[k].at(i, o), &sums[k]
			s.delay += core.StartupDelay(obj, hit, bw)
			s.quality += core.StreamQuality(obj, hit, bw)
			if core.ImmediatelyServable(obj, hit, bw) {
				s.value += obj.Value
			}
		}
		w := rp.watchedAt(i, obj.Size)
		a.cached += float64(min(hit, w))
		watched += float64(w)
		if hit > 0 {
			a.hits++
		}
		a.evicted += evicted
	}
	for k := range cols {
		out[k] = memberTotals{a, sums[k]}.metrics(len(rp.obj)-warm, watched)
	}
	return nil
}
