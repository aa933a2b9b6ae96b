package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/metrics"
	"streamcache/internal/sim"
	"streamcache/internal/trace"
	"streamcache/internal/units"
	"streamcache/internal/workload"
)

// ErrBadScale reports an invalid experiment scale.
var ErrBadScale = errors.New("experiments: invalid scale")

// Table is one regenerated table or figure.
type Table struct {
	Name   string
	Note   string
	Header []string
	Rows   [][]string
}

// Scale sets the experiment size. The paper's full scale (5000 objects,
// 100k requests, 10 runs) takes minutes; the small scale preserves every
// shape at a fraction of the cost and is the default for benchmarks and
// tests.
type Scale struct {
	Objects        int
	Requests       int
	Runs           int
	Seed           int64
	CacheFractions []float64 // of total unique object bytes
	AlphaSweep     []float64 // Figure 6
	ESweep         []float64 // Figures 9 and 12
	SigmaSweep     []float64 // scenario matrix variability levels
	TraceEntries   int       // Figures 2-3 synthetic log size
	TraceServers   int
	// Parallelism bounds the concurrent sweep-point simulations (default
	// runtime.GOMAXPROCS(0)). Tables are bit-identical for every value.
	Parallelism int
	// RefineBudget is the number of extra points the adaptive axis
	// sweeps (refined-e, refined-sigma, refined-cache, refined-esigma)
	// may add beyond their coarse grid, bisecting the intervals (in 2-D,
	// the cells) where the metric varies most. 0 disables refinement.
	RefineBudget int
	// Shard restricts a run to the rows this shard owns, so N
	// independent processes split one sweep: the units of the whole
	// figure set (a family of groups that take the capacity pass, or a
	// group of rows with one share key) go whole to one shard, dealt once
	// per scale, and a round of lone rows the set does not hold round
	// robin (index mod Shard.Count == Shard.Index). The union
	// of the shards' rows is bit-identical to the unsharded stream for
	// any Count, mirroring the Parallelism guarantee; MergeJournals
	// reassembles it from the shards' journals. The zero value means
	// unsharded.
	Shard Shard
	// Journal, when non-nil, checkpoints the run: the engine records
	// every row it emits there, with the metrics it fetches from other
	// shards and an end record after each table's last round, and
	// replays the rows and metrics it already holds instead of
	// recomputing them. Open it with CreateJournal for a fresh run (it
	// then holds only rows this run resolved) or ResumeJournal to finish
	// an interrupted one. Excluded from Fingerprint: replay cannot change
	// any row.
	Journal *Journal
	// Exchange, when non-nil, lets a sharded adaptive sweep resolve the
	// refinement metrics of foreign points (owned by other shards)
	// instead of re-simulating them, so each shard runs O(total/N)
	// simulations per refined sweep. A metric the exchange cannot
	// produce is evaluated locally — the determinism contract makes the
	// result identical either way, so Exchange is deliberately excluded
	// from Fingerprint: it cannot change any row.
	Exchange MetricExchange
	// Counters, when non-nil, accumulates scheduler telemetry (points
	// actually simulated, exchange hits and waits) for this process.
	// Excluded from Fingerprint: observation only.
	Counters *Counters
	// Arena, when non-nil, is shared by every experiment run at this
	// scale, so sizing workloads, replay tapes and synthetic logs are
	// compiled once per distinct config across the whole figure set
	// instead of once per experiment (cmd/figures sets it).
	// Nil gives each experiment a private arena. Deliberately excluded
	// from Fingerprint: memoization cannot change any row.
	Arena *sim.Arena
}

// SmallScale returns the fast configuration (~1/10 of the paper).
func SmallScale() Scale {
	return Scale{
		Objects:        500,
		Requests:       10000,
		Runs:           2,
		Seed:           1,
		CacheFractions: []float64{0.005, 0.02, 0.05, 0.1, 0.169},
		AlphaSweep:     []float64{0.5, 0.73, 1.0, 1.2},
		ESweep:         []float64{0, 0.2, 0.4, 0.6, 0.8, 1},
		SigmaSweep:     []float64{0, 0.25, 0.55},
		TraceEntries:   20000,
		TraceServers:   200,
		RefineBudget:   4,
	}
}

// PaperScale returns the paper's full Table 1 configuration.
func PaperScale() Scale {
	return Scale{
		Objects:        5000,
		Requests:       100000,
		Runs:           10,
		Seed:           1,
		CacheFractions: []float64{0.005, 0.02, 0.05, 0.1, 0.169},
		AlphaSweep:     []float64{0.5, 0.6, 0.73, 0.8, 0.9, 1.0, 1.1, 1.2},
		ESweep:         []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1},
		SigmaSweep:     []float64{0, 0.15, 0.25, 0.4, 0.55},
		TraceEntries:   100000,
		TraceServers:   1000,
		RefineBudget:   8,
	}
}

func (s Scale) validate() error {
	if s.Objects <= 0 || s.Requests <= 0 || s.Runs <= 0 {
		return fmt.Errorf("%w: objects/requests/runs = %d/%d/%d",
			ErrBadScale, s.Objects, s.Requests, s.Runs)
	}
	if len(s.CacheFractions) == 0 {
		return fmt.Errorf("%w: no cache fractions", ErrBadScale)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("%w: Parallelism=%d", ErrBadScale, s.Parallelism)
	}
	if s.RefineBudget < 0 {
		return fmt.Errorf("%w: RefineBudget=%d", ErrBadScale, s.RefineBudget)
	}
	return s.Shard.validate()
}

// Fingerprint summarizes every scale field that determines the row
// stream — everything except Parallelism, which by the determinism
// contract cannot change any row. Journals are stamped with it so a
// resume at a different scale (which would silently splice two
// incompatible row sets) fails instead. A sharded run's also names the
// ownership rule (Shard.rule).
func (s Scale) Fingerprint() string {
	return fmt.Sprintf(
		"objects=%d requests=%d runs=%d seed=%d fractions=%v alpha=%v e=%v sigma=%v trace=%d/%d refine=%d shard=%s",
		s.Objects, s.Requests, s.Runs, s.Seed, s.CacheFractions, s.AlphaSweep,
		s.ESweep, s.SigmaSweep, s.TraceEntries, s.TraceServers,
		s.RefineBudget, s.Shard) + s.Shard.rule()
}

// RunFingerprint is Fingerprint with the shard identity erased: the
// identity of the whole distributed run, shared by all of its shards.
// The collector session is stamped with it — shards of different runs
// cannot mix — while each shard's journal keeps the shard-specific
// Fingerprint. A sharded run's keeps the ownership rule.
func (s Scale) RunFingerprint() string {
	rule := s.Shard.rule()
	s.Shard = Shard{}
	return s.Fingerprint() + rule
}

// stampShard reads a journal stamp, a Fingerprint, back: the shard
// that wrote it, and the stamp without it, which a run's shards share.
func stampShard(stamp string) (Shard, string, error) {
	head, tail, _ := strings.Cut(stamp, " shard=")
	field, rule, _ := strings.Cut(tail, " ")
	sh, err := ParseShard(field)
	if err == nil && field == "" {
		err = fmt.Errorf("names no shard")
	}
	if err != nil {
		return Shard{}, "", fmt.Errorf("stamp %q: %w", stamp, err)
	}
	return sh, head + " " + rule, nil
}

// totalBytes estimates the unique-object volume for cache sizing. The
// sizing workload uses the seed of run 0 (sim.SplitSeed, matching what
// sim.Run derives internally) so the cache_pct axis is a fraction of an
// object population the simulations actually realize. Generation is
// memoized through the scale's arena (Experiment.Stream guarantees
// one): every spec at one scale sizes against the same workload, so a
// shared arena pays for it once.
func (s Scale) totalBytes() (int64, error) {
	w, err := s.Arena.Workload(workload.Config{
		NumObjects:  s.Objects,
		NumRequests: 1,
		Seed:        sim.SplitSeed(s.Seed, 0),
	})
	if err != nil {
		return 0, err
	}
	return w.TotalUniqueBytes(), nil
}

// traceWorkload validates the scale and generates, through the arena,
// the one full request trace the workload-level tables (table1,
// ext-merging) characterize.
func (s Scale) traceWorkload() (*workload.Workload, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s.Arena.Workload(workload.Config{NumObjects: s.Objects, NumRequests: s.Requests, Seed: s.Seed})
}

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// table1 reports the generated workload's characteristics against the
// paper's Table 1 targets.
func table1(s Scale) (*plan, error) {
	w, err := s.traceWorkload()
	if err != nil {
		return nil, err
	}
	counts := w.RequestCounts()
	top10 := int64(0)
	for i := 0; i < 10 && i < len(counts); i++ {
		top10 += counts[i]
	}
	rate := w.Config.Rate()
	return staticPlan(TableMeta{
		Name:   "Table 1: Characteristics of the Synthetic Workload",
		Note:   "paper targets: 5000 objects, 100000 requests, Zipf 0.73, ~55 min mean duration, 48 KB/s, ~790 GB total",
		Header: []string{"characteristic", "value"},
	}, [][]string{
		{"objects", strconv.Itoa(len(w.Objects))},
		{"requests", strconv.Itoa(len(w.Requests))},
		{"zipf_alpha", f3(w.Config.ZipfAlpha)},
		{"object_bitrate_KBps", f1(units.ToKBps(rate))},
		{"mean_duration_min", f1(w.MeanDurationSeconds() / 60)},
		{"total_unique_GB", f1(units.ToGBytes(w.TotalUniqueBytes()))},
		{"mean_request_rate_per_s", f3(float64(len(w.Requests)) / w.Span())},
		{"top10_request_share", f3(float64(top10) / float64(len(w.Requests)))},
	}), nil
}

// figure2 regenerates the NLANR bandwidth distribution: a synthetic
// Squid log is produced from the reconstructed model, then analyzed
// exactly as Section 3.1 describes (missed requests > 200 KB), yielding
// the histogram (4 KB/s slots) and CDF of Figure 2.
func figure2(s Scale) (*plan, error) {
	analysis, err := analyzeSyntheticLog(s, bandwidth.NoVariation{})
	if err != nil {
		return nil, err
	}
	hist, err := analysis.Histogram(units.KBps(4), units.KBps(452))
	if err != nil {
		return nil, err
	}
	return staticPlan(TableMeta{
		Name:   "Figure 2: Internet bandwidth distribution observed in (synthetic) NLANR cache logs",
		Note:   "anchors: 37% of requests below 50 KB/s, 56% below 100 KB/s",
		Header: []string{"bw_KBps", "samples", "cdf"},
	}, histogramRows(hist, func(bps float64) string { return f1(units.ToKBps(bps)) })), nil
}

// histogramRows renders a histogram as (bin start, samples, running
// CDF) rows, the shape of Figures 2 and 3.
func histogramRows(h *metrics.Histogram, start func(float64) string) [][]string {
	rows := make([][]string, h.NumBins())
	cdf := h.CDF()
	for i := range rows {
		rows[i] = []string{start(h.BinStart(i)), strconv.FormatInt(h.Bin(i), 10), f3(cdf[i])}
	}
	return rows
}

// figure3 regenerates the sample-to-mean bandwidth variability of the
// NLANR logs: per-server means, then the ratio histogram and CDF.
func figure3(s Scale) (*plan, error) {
	analysis, err := analyzeSyntheticLog(s, bandwidth.NLANRVariability())
	if err != nil {
		return nil, err
	}
	ratios := analysis.SampleToMeanRatios()
	h, err := metrics.NewHistogram(0, 0.1, 31) // 0..3.1 in 0.1 steps
	if err != nil {
		return nil, err
	}
	for _, r := range ratios {
		h.Add(r)
	}
	return staticPlan(TableMeta{
		Name:   "Figure 3: Variation of bandwidth observed in the (synthetic) NLANR cache logs",
		Note:   "paper: ~70% of samples fall within 0.5-1.5x the path mean",
		Header: []string{"ratio", "samples", "cdf"},
	}, histogramRows(h, f3)), nil
}

func analyzeSyntheticLog(s Scale, v bandwidth.Variability) (*trace.Analysis, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	entries, err := s.Arena.Trace(trace.GenConfig{
		Entries:       s.TraceEntries,
		Servers:       s.TraceServers,
		Variation:     v,
		HitFraction:   0.2,
		SmallFraction: 0.3,
		Seed:          s.Seed,
	})
	if err != nil {
		return nil, err
	}
	return trace.Analyze(entries, 0)
}

// figure4 regenerates the measured-path bandwidth time series: 4-minute
// samples over 30-45 hours for the three modeled paths, plus each path's
// sample-to-mean CoV (the paper's variability comparison).
func figure4(s Scale) (*plan, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var rows [][]string
	rng := rand.New(rand.NewSource(s.Seed))
	hours := []float64{45, 40, 30} // per Figure 4's spans
	for i, p := range []bandwidth.PresetPath{bandwidth.PathINRIA, bandwidth.PathTaiwan, bandwidth.PathHongKong} {
		cfg, err := bandwidth.PresetSeriesConfig(p)
		if err != nil {
			return nil, err
		}
		n := int(time.Duration(hours[i]*float64(time.Hour)) / cfg.Step)
		series, err := bandwidth.GenerateSeries(cfg, rng, n)
		if err != nil {
			return nil, err
		}
		for _, sample := range series {
			rows = append(rows, []string{
				p.String(), f3(sample.T.Hours()), f1(units.ToKBps(sample.Rate)),
			})
		}
	}
	return staticPlan(TableMeta{
		Name:   "Figure 4: Bandwidth variation of (modeled) real paths",
		Note:   "INRIA has much lower variability than the Far-East paths; all are below the NLANR-log level",
		Header: []string{"path", "t_hours", "bw_KBps"},
	}, rows), nil
}

// policyMetrics are the columns of the policy-comparison figures
// (5, 7, 8, 10, 11): all five Section 3.3 metrics.
var policyMetrics = []string{"traffic_reduction", "avg_delay_s", "avg_quality", "total_value", "hit_ratio"}

// delayMetrics are the columns of the delay-objective tables.
var delayMetrics = []string{"traffic_reduction", "avg_delay_s", "avg_quality"}

// The policy trios of the delay-objective (Figures 5, 7, 8) and the
// value-objective (Figures 10, 11) comparisons.
var (
	delayPolicies = policyAxis(core.NewIF(), core.NewPB(), core.NewIB())
	valuePolicies = policyAxis(core.NewIF(), core.NewPBV(), core.NewIBV())
)

// figure5 compares IF, PB and IB under the constant-bandwidth
// assumption across cache sizes.
var figure5 = spec{
	name:    "Figure 5: IF vs PB vs IB under constant bandwidth",
	note:    "expect: IF best traffic reduction, PB best delay/quality, IB between",
	axes:    []axisFn{cacheAxis, delayPolicies},
	metrics: policyMetrics,
}

// figure6 sweeps the Zipf popularity skew for IB and PB under constant
// bandwidth.
var figure6 = spec{
	name: "Figure 6: Effect of Zipf parameter alpha (IB and PB, constant bandwidth)",
	note: "expect: all metrics improve with alpha; orderings preserved",
	axes: []axisFn{
		func(s Scale) axis {
			return axis{cols: []string{"alpha"}, values: s.AlphaSweep, at: func(alpha float64) (level, error) {
				return opt(f3(alpha), func(pt *point) { pt.Workload.ZipfAlpha = alpha }), nil
			}}
		},
		cacheAxis, policyAxis(core.NewIB(), core.NewPB()),
	},
	metrics: delayMetrics,
}

// figure7 repeats Figure 5 under the high (NLANR-log) variability model.
var figure7 = spec{
	name:    "Figure 7: IF vs PB vs IB under NLANR-level bandwidth variability",
	note:    "expect: delays rise for all; IB no worse than PB",
	axes:    []axisFn{cacheAxis, delayPolicies, variation(bandwidth.NLANRVariability())},
	metrics: policyMetrics,
}

// figure8 repeats Figure 5 under the lower measured-path variability.
var figure8 = spec{
	name:    "Figure 8: IF vs PB vs IB under measured-path bandwidth variability",
	note:    "expect: PB regains the best delay/quality",
	axes:    []axisFn{cacheAxis, delayPolicies, variation(bandwidth.MeasuredVariability())},
	metrics: policyMetrics,
}

// figure9 sweeps the bandwidth under-estimation factor e between IB
// (e=0) and PB (e=1) under NLANR variability.
var figure9 = spec{
	name:    "Figure 9: Effect of partial caching based on bandwidth estimation (delay objective)",
	note:    "expect: traffic reduction decreases in e; delay minimized at moderate e",
	axes:    []axisFn{eAxis(core.NewHybrid), cacheAxis, variation(bandwidth.NLANRVariability())},
	metrics: delayMetrics,
}

// figure10 compares IF, PB-V and IB-V on the revenue objective under
// constant bandwidth.
var figure10 = spec{
	name:    "Figure 10: IF vs PB-V vs IB-V under constant bandwidth (value objective)",
	note:    "expect: IF best traffic but worst value; PB-V best value; IB-V balanced",
	axes:    []axisFn{cacheAxis, valuePolicies},
	metrics: policyMetrics,
}

// figure11 repeats Figure 10 under measured-path variability.
var figure11 = spec{
	name:    "Figure 11: IF vs PB-V vs IB-V under measured-path variability (value objective)",
	note:    "expect: IB-V the best compromise (and top value) once bandwidth varies",
	axes:    []axisFn{cacheAxis, valuePolicies, variation(bandwidth.MeasuredVariability())},
	metrics: policyMetrics,
}

// figure12 sweeps the under-estimation factor e for the value objective
// under NLANR variability.
var figure12 = spec{
	name:    "Figure 12: Effect of partial caching based on bandwidth estimation (value objective)",
	note:    "expect: total value maximized at a moderate e",
	axes:    []axisFn{eAxis(core.NewHybridV), cacheAxis, variation(bandwidth.NLANRVariability())},
	metrics: []string{"traffic_reduction", "total_value"},
}

// ablationEviction compares byte-granular (partial) eviction with
// whole-object eviction for the PB policy - the design choice called
// out in DESIGN.md section 6.
var ablationEviction = spec{
	name:    "Ablation: byte-granular vs whole-object eviction (PB policy, constant bandwidth)",
	axes:    []axisFn{cacheAxis, pbPolicy, choice("eviction", eviction("partial", false), eviction("whole", true))},
	metrics: delayMetrics,
}

func eviction(label string, whole bool) level {
	return opt(label, func(pt *point) { pt.WholeObjectEviction = whole })
}

// ablationEstimators compares the oracle-mean estimator with the passive
// EWMA estimator of Section 2.7 under measured-path variability.
var ablationEstimators = spec{
	name: "Ablation: oracle vs passive EWMA bandwidth estimation (PB policy, measured variability)",
	axes: []axisFn{cacheAxis, pbPolicy, variation(bandwidth.MeasuredVariability()), choice("estimator",
		estimator("oracle", nil),
		estimator("ewma_0.3", sim.EWMA{Alpha: 0.3}),
		estimator("underestimate_0.5", sim.Underestimate{E: 0.5}),
	)},
	metrics: delayMetrics,
}
