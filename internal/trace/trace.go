// Package trace implements the proxy-log pipeline of Section 3.1: the
// paper derives its bandwidth models by analyzing NLANR proxy-cache
// access logs - taking every missed request for an object larger than
// 200 KB and computing a throughput sample as object size divided by
// connection duration, then studying the per-server sample-to-mean
// ratios.
//
// The original nine-day NLANR UC log is not publicly archived, so this
// package also synthesizes Squid-format logs whose miss throughput
// follows the reconstructed NLANR base distribution (Figure 2) under a
// configurable variability model; the analyzer then re-derives the
// distribution from the log exactly as the paper does. See DESIGN.md
// ("Substitutions") for why this preserves the evaluation.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"streamcache/internal/bandwidth"
	"streamcache/internal/metrics"
	"streamcache/internal/units"
)

// Errors returned by this package.
var (
	ErrBadEntry  = errors.New("trace: malformed log entry")
	ErrBadConfig = errors.New("trace: invalid configuration")
)

// Cache result codes used in Squid access logs.
const (
	ActionMiss = "TCP_MISS"
	ActionHit  = "TCP_HIT"
)

// Entry is one Squid-native-format access log line:
//
//	time elapsed remotehost code/status bytes method URL rfc931 peerstatus/peerhost type
type Entry struct {
	Timestamp   float64 // unix seconds (millisecond precision)
	ElapsedMS   int64   // connection duration, milliseconds
	Client      string
	Action      string // TCP_MISS, TCP_HIT, ...
	Status      int    // HTTP status
	Bytes       int64
	Method      string
	URL         string
	Hierarchy   string // e.g. DIRECT/origin-7.example.com
	ContentType string
}

// Server extracts the origin host from the hierarchy field, or "" if the
// field is malformed.
func (e Entry) Server() string {
	if i := strings.IndexByte(e.Hierarchy, '/'); i >= 0 {
		return e.Hierarchy[i+1:]
	}
	return ""
}

// ThroughputBps returns the transfer throughput in bytes/s, or 0 when the
// duration is zero.
func (e Entry) ThroughputBps() float64 {
	if e.ElapsedMS <= 0 {
		return 0
	}
	return float64(e.Bytes) / (float64(e.ElapsedMS) / 1000)
}

// Format renders the entry as a Squid log line.
func (e Entry) Format() string {
	return fmt.Sprintf("%.3f %6d %s %s/%03d %d %s %s - %s %s",
		e.Timestamp, e.ElapsedMS, e.Client, e.Action, e.Status,
		e.Bytes, e.Method, e.URL, e.Hierarchy, e.ContentType)
}

// Parse parses one Squid log line.
func Parse(line string) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) != 10 {
		return Entry{}, fmt.Errorf("%w: %d fields, want 10", ErrBadEntry, len(fields))
	}
	ts, err := strconv.ParseFloat(fields[0], 64)
	if err != nil || ts < 0 || math.IsNaN(ts) || math.IsInf(ts, 0) {
		return Entry{}, fmt.Errorf("%w: timestamp %q", ErrBadEntry, fields[0])
	}
	elapsed, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || elapsed < 0 {
		return Entry{}, fmt.Errorf("%w: elapsed %q", ErrBadEntry, fields[1])
	}
	actionStatus := strings.SplitN(fields[3], "/", 2)
	if len(actionStatus) != 2 || actionStatus[0] == "" {
		return Entry{}, fmt.Errorf("%w: action/status %q", ErrBadEntry, fields[3])
	}
	status, err := strconv.Atoi(actionStatus[1])
	if err != nil || status < 0 {
		return Entry{}, fmt.Errorf("%w: status %q", ErrBadEntry, actionStatus[1])
	}
	size, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil || size < 0 {
		return Entry{}, fmt.Errorf("%w: bytes %q", ErrBadEntry, fields[4])
	}
	return Entry{
		Timestamp:   ts,
		ElapsedMS:   elapsed,
		Client:      fields[2],
		Action:      actionStatus[0],
		Status:      status,
		Bytes:       size,
		Method:      fields[5],
		URL:         fields[6],
		Hierarchy:   fields[8],
		ContentType: fields[9],
	}, nil
}

// Write renders entries to w, one log line each.
func Write(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	for i, e := range entries {
		if _, err := bw.WriteString(e.Format()); err != nil {
			return fmt.Errorf("trace: write entry %d: %w", i, err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("trace: write entry %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadAll parses every line of r. Blank lines are skipped; a malformed
// line aborts with its line number.
func ReadAll(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return out, nil
}

// GenConfig parameterizes synthetic log generation. Object sizes are
// uniform on [genMinBytes, AnalysisMinBytes) for the small fraction and
// on [AnalysisMinBytes, genMaxBytes) for the rest; timestamps start at
// 0 and arrive as a Poisson process of genRate requests/s.
type GenConfig struct {
	Entries       int                   // number of log lines
	Servers       int                   // number of distinct origin servers (paths)
	Variation     bandwidth.Variability // per-request sample-to-mean ratio
	HitFraction   float64               // fraction of TCP_HIT lines (excluded by analysis)
	SmallFraction float64               // fraction of sub-200KB objects (excluded by analysis)
	Seed          int64
}

// The generated log's size range and request rate.
const (
	genMinBytes = 4 * units.KB
	genMaxBytes = 8 * units.MB
	genRate     = 10
)

// Generate synthesizes a Squid log. Each origin server is assigned a mean
// bandwidth from the NLANR distribution (bandwidth.NLANR, Figure 2); each
// request to it observes mean x Variation ratio, and the logged elapsed
// time is size/throughput, so the analyzer recovers both distributions.
func Generate(cfg GenConfig) ([]Entry, error) {
	if cfg.Entries <= 0 {
		return nil, fmt.Errorf("%w: entries=%d, want > 0", ErrBadConfig, cfg.Entries)
	}
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("%w: servers=%d, want > 0", ErrBadConfig, cfg.Servers)
	}
	if cfg.Variation == nil {
		return nil, fmt.Errorf("%w: nil Variation model", ErrBadConfig)
	}
	if cfg.HitFraction < 0 || cfg.HitFraction >= 1 {
		return nil, fmt.Errorf("%w: hit fraction=%v, want in [0,1)", ErrBadConfig, cfg.HitFraction)
	}
	if cfg.SmallFraction < 0 || cfg.SmallFraction >= 1 {
		return nil, fmt.Errorf("%w: small fraction=%v, want in [0,1)", ErrBadConfig, cfg.SmallFraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := bandwidth.NLANR()
	paths := make([]bandwidth.Path, cfg.Servers)
	for i := range paths {
		paths[i] = bandwidth.Path{MeanRate: base.Sample(rng), Variation: cfg.Variation}
	}
	entries := make([]Entry, 0, cfg.Entries)
	var now float64
	for i := 0; i < cfg.Entries; i++ {
		now += rng.ExpFloat64() / genRate
		srv := rng.Intn(cfg.Servers)
		var size int64
		if rng.Float64() < cfg.SmallFraction {
			size = genMinBytes + rng.Int63n(AnalysisMinBytes-genMinBytes)
		} else {
			size = AnalysisMinBytes + rng.Int63n(genMaxBytes-AnalysisMinBytes)
		}
		action := ActionMiss
		throughput := paths[srv].Instant(rng)
		if rng.Float64() < cfg.HitFraction {
			action = ActionHit
			// Hits are served locally at LAN speed.
			throughput = units.KBps(10000)
		}
		elapsed := int64(float64(size) / throughput * 1000)
		if elapsed < 1 {
			elapsed = 1
		}
		entries = append(entries, Entry{
			Timestamp:   now,
			ElapsedMS:   elapsed,
			Client:      fmt.Sprintf("10.0.%d.%d", rng.Intn(16), rng.Intn(256)),
			Action:      action,
			Status:      200,
			Bytes:       size,
			Method:      "GET",
			URL:         fmt.Sprintf("http://origin-%d.example.com/media/obj-%d", srv, i),
			Hierarchy:   fmt.Sprintf("DIRECT/origin-%d.example.com", srv),
			ContentType: "video/mpeg",
		})
	}
	return entries, nil
}

// AnalysisMinBytes is the object-size threshold of Section 3.1: only
// requests larger than 200 KB yield bandwidth samples ("long duration of
// HTTP connections results in more accurate measurement").
const AnalysisMinBytes = 200 * units.KB

// Analysis holds the bandwidth samples extracted from a log.
type Analysis struct {
	// Samples are all qualifying throughput samples in bytes/s.
	Samples []float64
	// PerServer groups samples by origin server.
	PerServer map[string][]float64
}

// Analyze extracts bandwidth samples following Section 3.1: missed
// requests only (so the object was served by the origin, not the proxy),
// objects larger than minBytes (AnalysisMinBytes if 0), sample =
// bytes/duration.
func Analyze(entries []Entry, minBytes int64) (*Analysis, error) {
	if minBytes <= 0 {
		minBytes = AnalysisMinBytes
	}
	a := &Analysis{PerServer: make(map[string][]float64)}
	for _, e := range entries {
		if e.Action != ActionMiss || e.Bytes <= minBytes {
			continue
		}
		bps := e.ThroughputBps()
		if bps <= 0 {
			continue
		}
		a.Samples = append(a.Samples, bps)
		if srv := e.Server(); srv != "" {
			a.PerServer[srv] = append(a.PerServer[srv], bps)
		}
	}
	if len(a.Samples) == 0 {
		return nil, fmt.Errorf("%w: no qualifying samples (need %s misses > %d bytes)",
			ErrBadConfig, ActionMiss, minBytes)
	}
	return a, nil
}

// Histogram bins the bandwidth samples with the given bin width (the
// paper uses 4 KB/s slots) up to maxBW; samples beyond clamp into the
// last bin.
func (a *Analysis) Histogram(binWidth, maxBW float64) (*metrics.Histogram, error) {
	bins := int(maxBW / binWidth)
	if bins < 1 {
		bins = 1
	}
	h, err := metrics.NewHistogram(0, binWidth, bins)
	if err != nil {
		return nil, err
	}
	for _, s := range a.Samples {
		h.Add(s)
	}
	return h, nil
}

// SampleToMeanRatios computes the Figure 3 statistic: for every server
// with at least two samples, the mean bandwidth of its path, then each
// sample divided by that mean.
func (a *Analysis) SampleToMeanRatios() []float64 {
	var ratios []float64
	// Sorted server order: downstream consumers fold the ratios into
	// order-sensitive float accumulators (Welford), so the slice order
	// must not follow map iteration order.
	servers := make([]string, 0, len(a.PerServer))
	for srv := range a.PerServer {
		servers = append(servers, srv)
	}
	sort.Strings(servers)
	for _, srv := range servers {
		samples := a.PerServer[srv]
		if len(samples) < 2 {
			continue
		}
		sum := 0.0
		for _, s := range samples {
			sum += s
		}
		mean := sum / float64(len(samples))
		if mean <= 0 {
			continue
		}
		for _, s := range samples {
			ratios = append(ratios, s/mean)
		}
	}
	return ratios
}
