package load

import (
	"math"
	"slices"
	"strconv"
	"time"

	"streamcache/internal/experiments"
	"streamcache/internal/units"
)

// ClassSummary aggregates one class's outcomes (or, for Report.Total,
// all of them). Rates are in requests per *workload* second — the same
// unit the spec's arrival rates use — so achieved vs configured rates
// compare directly at any time scale.
type ClassSummary struct {
	Name  string
	SLOms float64 // startup-delay budget, ms (0 for the aggregate row)

	Issued    int // scheduled arrivals that reached the dispatcher
	Completed int
	Shed      int
	Failed    int

	// Violations counts arrivals that missed their SLO: every shed or
	// failed arrival (the user got nothing) plus completions whose
	// startup delay exceeded the class budget.
	Violations int
	// GoodCompleted and GoodBytes cover SLO-compliant completions only.
	GoodCompleted int
	GoodBytes     int64

	OfferedRPS  float64 // Issued per workload second
	AchievedRPS float64 // Completed per workload second
	GoodputRPS  float64 // GoodCompleted per workload second

	SLOViolationFrac float64 // Violations / Issued

	DelayMean time.Duration // startup delay over completions
	DelayP50  time.Duration
	DelayP90  time.Duration
	DelayP99  time.Duration

	Bytes      int64         // bytes downloaded by completions
	HitBytes   int64         // of those, bytes served from the cached prefix
	PrefixHits int           // completions with any prefix hit
	Elapsed    time.Duration // summed download time of completions
}

// PrefixHitRatio is the share of completions served any cached prefix.
func (c *ClassSummary) PrefixHitRatio() float64 {
	if c.Completed == 0 {
		return 0
	}
	return float64(c.PrefixHits) / float64(c.Completed)
}

// BWHitRatio is the bandwidth-weighted hit ratio: the share of
// downloaded bytes served from the cached prefix — the paper's traffic
// reduction ratio measured at the client.
func (c *ClassSummary) BWHitRatio() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return float64(c.HitBytes) / float64(c.Bytes)
}

// MeanKBps is the mean per-download throughput: bytes over summed
// download time, in KB/s.
func (c *ClassSummary) MeanKBps() float64 {
	if c.Elapsed <= 0 {
		return 0
	}
	return units.ToKBps(float64(c.Bytes) / c.Elapsed.Seconds())
}

// Report is the result of one run (one ramp level).
type Report struct {
	Wall      time.Duration
	TimeScale float64
	RateScale float64
	Classes   []ClassSummary // in spec order
	Total     ClassSummary   // aggregate over all classes
}

// Summarize aggregates per-arrival outcomes into a Report. The SLO
// budget is judged against measured wall-clock startup delay; at high
// time scales operators should scale budgets to match (see
// OPERATIONS.md).
func Summarize(spec *Spec, outcomes []Outcome, wall time.Duration, timeScale, rateScale float64) *Report {
	r := &Report{Wall: wall, TimeScale: timeScale, RateScale: rateScale}
	r.Classes = make([]ClassSummary, len(spec.Classes))
	perClass := make([][]time.Duration, len(spec.Classes))
	for ci := range spec.Classes {
		r.Classes[ci].Name = spec.Classes[ci].Name
		r.Classes[ci].SLOms = float64(spec.Classes[ci].SLO.Threshold()) / float64(time.Millisecond)
	}
	var allDelays []time.Duration
	for _, o := range outcomes {
		ci := o.Item.ClassIdx
		if ci < 0 || ci >= len(r.Classes) {
			continue
		}
		c := &r.Classes[ci]
		budget := spec.Classes[ci].SLO.Threshold()
		c.Issued++
		switch o.State {
		case Shed:
			c.Shed++
			c.Violations++
		case Failed:
			c.Failed++
			c.Violations++
		case Completed:
			c.Completed++
			c.Bytes += o.Bytes
			c.HitBytes += o.HitBytes
			c.Elapsed += o.Elapsed
			if o.HitBytes > 0 {
				c.PrefixHits++
			}
			perClass[ci] = append(perClass[ci], o.Startup)
			allDelays = append(allDelays, o.Startup)
			if o.Startup > budget {
				c.Violations++
			} else {
				c.GoodCompleted++
				c.GoodBytes += o.Bytes
			}
		}
	}

	// Workload seconds elapsed: the denominator that makes achieved rates
	// comparable to the spec's configured (workload-time) rates.
	wsec := wall.Seconds() * timeScale
	for ci := range r.Classes {
		finishClass(&r.Classes[ci], perClass[ci], wsec)
		accumulate(&r.Total, &r.Classes[ci])
	}
	r.Total.Name = "all"
	finishClass(&r.Total, allDelays, wsec)
	return r
}

func finishClass(c *ClassSummary, delays []time.Duration, workloadSeconds float64) {
	if workloadSeconds > 0 {
		c.OfferedRPS = float64(c.Issued) / workloadSeconds
		c.AchievedRPS = float64(c.Completed) / workloadSeconds
		c.GoodputRPS = float64(c.GoodCompleted) / workloadSeconds
	}
	if c.Issued > 0 {
		c.SLOViolationFrac = float64(c.Violations) / float64(c.Issued)
	}
	var sum time.Duration
	for _, d := range delays {
		sum += d
	}
	if len(delays) > 0 {
		c.DelayMean = sum / time.Duration(len(delays))
	}
	slices.Sort(delays)
	c.DelayP50 = percentileDur(delays, 0.50)
	c.DelayP90 = percentileDur(delays, 0.90)
	c.DelayP99 = percentileDur(delays, 0.99)
}

func accumulate(total, c *ClassSummary) {
	total.Issued += c.Issued
	total.Completed += c.Completed
	total.Shed += c.Shed
	total.Failed += c.Failed
	total.Violations += c.Violations
	total.GoodCompleted += c.GoodCompleted
	total.GoodBytes += c.GoodBytes
	total.Bytes += c.Bytes
	total.HitBytes += c.HitBytes
	total.PrefixHits += c.PrefixHits
	total.Elapsed += c.Elapsed
}

// percentileDur returns the nearest-rank p-th percentile of sorted.
func percentileDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// MS renders a duration as a table cell in milliseconds.
func MS(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 2, 64)
}

func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// SummaryRow renders the report as one experiments.LiveCapacityHeader
// row for ramp level `level`.
func (r *Report) SummaryRow(level int) []string {
	t := &r.Total
	goodKBps := 0.0
	if wsec := r.Wall.Seconds() * r.TimeScale; wsec > 0 {
		goodKBps = float64(t.GoodBytes) / wsec / 1024
	}
	return []string{
		strconv.Itoa(level),
		f4(r.RateScale),
		f4(r.TimeScale),
		f4(t.OfferedRPS),
		f4(t.AchievedRPS),
		f4(t.GoodputRPS),
		strconv.FormatFloat(goodKBps, 'f', 1, 64),
		strconv.Itoa(t.Issued),
		strconv.Itoa(t.Completed),
		strconv.Itoa(t.Shed),
		strconv.Itoa(t.Failed),
		f4(t.SLOViolationFrac),
		MS(t.DelayP50),
		MS(t.DelayP90),
		MS(t.DelayP99),
		f4(t.PrefixHitRatio()),
		f4(t.BWHitRatio()),
		strconv.FormatFloat(r.Wall.Seconds(), 'f', 3, 64),
	}
}

// ClassRows renders one experiments.LiveClassHeader row per class.
func (r *Report) ClassRows(level int) [][]string {
	rows := make([][]string, 0, len(r.Classes))
	for i := range r.Classes {
		c := &r.Classes[i]
		rows = append(rows, []string{
			strconv.Itoa(level),
			c.Name,
			strconv.FormatFloat(c.SLOms, 'f', 0, 64),
			f4(c.OfferedRPS),
			f4(c.AchievedRPS),
			strconv.Itoa(c.Issued),
			strconv.Itoa(c.Completed),
			strconv.Itoa(c.Shed),
			strconv.Itoa(c.Failed),
			f4(c.SLOViolationFrac),
			MS(c.DelayP50),
			MS(c.DelayP90),
			MS(c.DelayP99),
		})
	}
	return rows
}

// OutcomeHeader is the row schema of a per-item outcome table.
var OutcomeHeader = []string{
	"index", "time_s", "class", "object", "state",
	"bytes", "hit_bytes", "startup_ms", "ttfb_ms", "elapsed_ms", "error",
}

// OutcomeTable renders one row per scheduled item, in schedule order.
func OutcomeTable(name string, outcomes []Outcome) *experiments.Table {
	t := &experiments.Table{
		Name:   name,
		Note:   "one row per scheduled arrival, in schedule order",
		Header: OutcomeHeader,
	}
	for _, o := range outcomes {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(o.Item.Index),
			strconv.FormatFloat(o.Item.Time, 'g', -1, 64),
			o.Item.Class,
			strconv.Itoa(o.Item.ObjectID),
			o.State.String(),
			strconv.FormatInt(o.Bytes, 10),
			strconv.FormatInt(o.HitBytes, 10),
			MS(o.Startup),
			MS(o.TTFB),
			MS(o.Elapsed),
			o.Err,
		})
	}
	return t
}
