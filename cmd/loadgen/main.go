// Command loadgen is the load harness for proxyd: flags in, a schedule
// through load.Run, tables out. Its two modes are one engine
// (internal/load) fed two kinds of schedule.
//
// Closed loop (-mode closed, the default): -requests items of the
// Table 1 trace with no arrival times, -clients at once — each slot
// issues its next request as soon as the previous download completes, so
// offered load is capped at the client count and a saturated proxy
// silently throttles the workload. Reports the paper's live metrics
// (startup delay distribution, bandwidth-weighted hit ratio, origin
// bytes) as a RowSink-compatible table (CSV or JSONL).
//
// Open loop (-mode open): arrivals fire from a deterministic schedule
// regardless of how the proxy is keeping up; arrivals beyond the
// in-flight cap are shed, not queued. This is how to measure capacity:
// sweep -ramp levels of offered load and watch where the SLO-violation
// fraction knees. Workload classes come from a JSON spec (-spec) or the
// single-class -rate/-slo-ms flags, and -time-scale compresses workload
// time onto the wall clock.
//
//	proxyd -proxy-addr 127.0.0.1:8081 -objects 50 &
//	loadgen -proxy http://127.0.0.1:8081 -clients 8 -requests 500 -objects 50
//	loadgen -proxy http://127.0.0.1:8081 -mode open -rate 20 -duration 30 \
//	    -ramp 1,2,4,8 -slo-ms 1000 -objects 50
//
// Catalog flags (-objects, -mean-kb, -rate-kbps, -catalog-seed) must
// match the running proxyd so object sizes and playback rates agree.
//
// Against a cluster, -proxy takes a comma-separated list of edge base
// URLs in ring order; closed-loop request i goes to edge i%N — the
// same assignment the simulator's hierarchy runs use — and the summary
// gains the per-tier byte-fraction columns of the hierarchy experiment
// (edge/peer/parent/origin), summed across every listed node's /stats.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"streamcache/internal/experiments"
	"streamcache/internal/load"
	"streamcache/internal/proxy"
	"streamcache/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type options struct {
	proxyURL  string
	proxyURLs []string // proxyURL split on commas: the edge nodes in ring order

	mode        string
	clients     int
	requests    int
	objects     int
	meanKB      int64
	rateKBps    float64
	catalogSeed int64
	zipfAlpha   float64
	traceSeed   int64
	format      string
	out         string
	perRequest  string
	perClass    string
	wait        time.Duration
	minHitRatio float64
	verify      bool

	// Open-loop mode.
	spec        string
	rate        float64
	arrival     string
	timeScale   float64
	duration    float64
	maxInflight int
	ramp        string
	sloMS       float64
	scheduleOut string
	dryRun      bool
}

func run() error {
	var o options
	flag.StringVar(&o.proxyURL, "proxy", "http://127.0.0.1:8081", "proxy base URL, or a comma-separated edge list in ring order (request i goes to edge i%N)")
	flag.IntVar(&o.clients, "clients", 4, "concurrent closed-loop clients")
	flag.IntVar(&o.requests, "requests", 0, "closed: total requests to issue (0 = 200); open: cap on scheduled arrivals per level (0 = none)")
	flag.IntVar(&o.objects, "objects", 50, "catalog size (must match proxyd)")
	flag.Int64Var(&o.meanKB, "mean-kb", 2048, "mean object size, KB (must match proxyd)")
	flag.Float64Var(&o.rateKBps, "rate-kbps", 512, "object playback rate, KB/s (must match proxyd)")
	flag.Int64Var(&o.catalogSeed, "catalog-seed", 1, "catalog seed (must match proxyd -seed)")
	flag.Float64Var(&o.zipfAlpha, "zipf", 0.73, "request popularity skew")
	flag.Int64Var(&o.traceSeed, "trace-seed", 1, "request trace seed")
	flag.StringVar(&o.format, "format", "csv", "output format: csv or jsonl")
	flag.StringVar(&o.out, "out", "-", "summary table destination ('-' = stdout)")
	flag.StringVar(&o.perRequest, "per-request", "", "optional per-request outcome table destination")
	flag.DurationVar(&o.wait, "wait", 10*time.Second, "wait up to this long for the proxy to become reachable")
	flag.Float64Var(&o.minHitRatio, "min-hit-ratio", -1, "exit nonzero unless the bandwidth-weighted hit ratio reaches this (-1 = no check)")
	flag.BoolVar(&o.verify, "verify", false, "verify every complete download against the expected content digest")
	flag.StringVar(&o.mode, "mode", "closed", "load mode: closed (fixed clients) or open (scheduled arrivals)")
	flag.StringVar(&o.spec, "spec", "", "open: JSON workload spec file (overrides -rate/-arrival/-slo-ms)")
	flag.Float64Var(&o.rate, "rate", 10, "open: offered arrival rate, requests per workload second")
	flag.StringVar(&o.arrival, "arrival", "poisson", "open: arrival process for the flag-driven class: poisson, trace or onoff")
	flag.Float64Var(&o.timeScale, "time-scale", 1, "open: workload seconds replayed per wall second")
	flag.Float64Var(&o.duration, "duration", 30, "open: workload horizon, workload seconds")
	flag.IntVar(&o.maxInflight, "max-inflight", 256, "open: concurrent downloads before arrivals are shed")
	flag.StringVar(&o.ramp, "ramp", "", "open: comma-separated offered-load multipliers, one level each (e.g. 1,2,4,8)")
	flag.Float64Var(&o.sloMS, "slo-ms", 1000, "open: startup-delay SLO budget, ms, for the flag-driven class")
	flag.StringVar(&o.scheduleOut, "schedule-out", "", "open: write the generated arrival schedule (JSONL/CSV per -format)")
	flag.StringVar(&o.perClass, "per-class", "", "open: optional per-class breakdown table destination")
	flag.BoolVar(&o.dryRun, "dry-run", false, "open: build and emit the schedule without issuing requests")
	flag.Parse()
	for _, u := range strings.Split(o.proxyURL, ",") {
		if u = strings.TrimSpace(u); u != "" {
			o.proxyURLs = append(o.proxyURLs, u)
		}
	}
	if len(o.proxyURLs) == 0 {
		return errors.New("-proxy lists no URLs")
	}
	catalog, err := proxy.BuildCatalog(o.objects, o.meanKB, o.rateKBps, o.catalogSeed)
	if err != nil {
		return err
	}
	switch o.mode {
	case "open":
		if len(o.proxyURLs) > 1 {
			return errors.New("open mode drives a single proxy; pass one -proxy URL")
		}
		return driveOpen(o, catalog)
	case "closed":
		return driveClosed(o, catalog)
	default:
		return fmt.Errorf("mode=%q, want closed or open", o.mode)
	}
}

// driveClosed runs the closed-loop mode: -requests untimed items of the
// Table 1 trace, -clients in flight, and the loadgen-live row from the
// run's report plus the nodes' /stats delta.
func driveClosed(o options, catalog *proxy.Catalog) error {
	if o.requests == 0 {
		o.requests = 200
	}
	if o.clients <= 0 || o.requests < 0 {
		return fmt.Errorf("clients=%d requests=%d, want > 0", o.clients, o.requests)
	}
	trace, err := workload.Generate(workload.Config{
		NumObjects:  o.objects,
		NumRequests: o.requests,
		ZipfAlpha:   o.zipfAlpha,
		Seed:        o.traceSeed,
	})
	if err != nil {
		return err
	}
	for _, u := range o.proxyURLs {
		if err := waitReachable(u, o.wait); err != nil {
			return err
		}
	}
	before, err := fetchStatsAll(o.proxyURLs)
	if err != nil {
		return fmt.Errorf("stats before run: %w", err)
	}
	spec := load.SingleClass(o.rate, o.sloMS)
	outcomes, report, err := load.Run(load.Options{
		Edges:       o.proxyURLs,
		Catalog:     catalog,
		Spec:        spec,
		MaxInflight: o.clients,
		Verify:      o.verify,
	}, load.ClosedSchedule(spec, trace.Requests))
	if err != nil {
		return err
	}
	after, err := fetchStatsAll(o.proxyURLs)
	if err != nil {
		return fmt.Errorf("stats after run: %w", err)
	}

	if err := o.emit(o.out, false, liveTable(o, report, before, after)); err != nil {
		return err
	}
	if o.perRequest != "" {
		if err := o.emit(o.perRequest, false, load.OutcomeTable("loadgen-requests", outcomes)); err != nil {
			return err
		}
	}
	if report.Total.Failed == o.requests {
		return errors.New("every request failed")
	}
	if ratio := report.Total.BWHitRatio(); o.minHitRatio >= 0 && ratio < o.minHitRatio {
		return fmt.Errorf("bandwidth-weighted hit ratio %.4f below required %.4f", ratio, o.minHitRatio)
	}
	return nil
}

// liveTable renders the closed-loop summary: the request side from the
// run's report, the node side from the /stats delta across all queried
// nodes. The last four cells are the cmd-side counterpart of
// experiments.TierColumns: each delivered byte is attributed to where
// the client's edge got it — its own cache, a peer's cache, the parent
// tier, or the origin path. Without peering the four fractions are
// exact; with peering a byte served out of a peer's cache also counts
// as that peer's own cache hit, so the edge share reads slightly high
// relative to the simulator's exact decomposition.
func liveTable(o options, r *load.Report, before, after []proxy.Stats) *experiments.Table {
	tiers := map[string]int64{}
	var edge, coalesced int64
	for i := range after {
		edge += after[i].BytesFromHit - before[i].BytesFromHit
		coalesced += after[i].CoalescedRequests - before[i].CoalescedRequests
		for tier, b := range after[i].TierBytes {
			tiers[tier] += b - before[i].TierBytes[tier]
		}
	}
	tot := edge + tiers["peer"] + tiers["parent"] + tiers["origin"]
	frac := func(b int64) string {
		v := 0.0
		if tot > 0 {
			v = float64(b) / float64(tot)
		}
		return strconv.FormatFloat(v, 'f', 4, 64)
	}
	t := &r.Total
	return &experiments.Table{
		Name: "loadgen-live",
		Note: fmt.Sprintf("closed-loop live metrics: %d clients x %d requests against %d node(s) %s (objects=%d zipf=%.2f)",
			o.clients, o.requests, len(o.proxyURLs), o.proxyURL, o.objects, o.zipfAlpha),
		Header: append([]string{
			"clients", "requests", "errors",
			"prefix_hit_ratio", "bw_hit_ratio", "origin_bytes", "coalesced",
			"delay_mean_ms", "delay_p50_ms", "delay_p90_ms", "delay_p99_ms",
			"mean_throughput_kbps", "wall_seconds",
		}, experiments.TierColumns...),
		Rows: [][]string{{
			strconv.Itoa(o.clients),
			strconv.Itoa(t.Issued),
			strconv.Itoa(t.Failed),
			strconv.FormatFloat(t.PrefixHitRatio(), 'f', 4, 64),
			strconv.FormatFloat(t.BWHitRatio(), 'f', 4, 64),
			strconv.FormatInt(tiers["origin"], 10),
			strconv.FormatInt(coalesced, 10),
			load.MS(t.DelayMean), load.MS(t.DelayP50), load.MS(t.DelayP90), load.MS(t.DelayP99),
			strconv.FormatFloat(t.MeanKBps(), 'f', 1, 64),
			strconv.FormatFloat(r.Wall.Seconds(), 'f', 3, 64),
			frac(edge), frac(tiers["peer"]), frac(tiers["parent"]), frac(tiers["origin"]),
		}},
	}
}

// table is one output table being written: the -format rendering of
// its destination.
type table struct {
	experiments.RowSink
	close func() error
}

// open opens path ('-' = stdout; appending when appendTo, so the
// per-level tables of a ramp sweep can share one file) as a table
// destination. Begin, rows and End go through the returned table;
// close releases the destination.
func (o options) open(path string, appendTo bool) (*table, error) {
	w, closeOut := io.Writer(os.Stdout), func() error { return nil }
	if path != "-" {
		how := os.O_TRUNC
		if appendTo {
			how = os.O_APPEND
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|how, 0o666)
		if err != nil {
			return nil, err
		}
		w, closeOut = f, f.Close
	}
	var sink experiments.RowSink = experiments.NewCSVSink(w)
	if o.format == "jsonl" {
		sink = experiments.NewJSONLSink(w)
	}
	return &table{sink, closeOut}, nil
}

// emit writes a whole table to path. The deferred close covers the
// error paths; closing twice is harmless.
func (o options) emit(path string, appendTo bool, t *experiments.Table) error {
	out, err := o.open(path, appendTo)
	if err != nil {
		return err
	}
	defer out.close()
	if err := t.Stream(out); err != nil {
		return err
	}
	return out.close()
}

// waitReachable polls the proxy's /stats endpoint until it answers.
func waitReachable(proxyURL string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		if _, err := fetchStats(proxyURL); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("proxy %s not reachable after %v: %w", proxyURL, wait, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fetchStatsAll snapshots /stats on every node, in list order.
func fetchStatsAll(urls []string) ([]proxy.Stats, error) {
	all := make([]proxy.Stats, len(urls))
	for i, u := range urls {
		s, err := fetchStats(u)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u, err)
		}
		all[i] = s
	}
	return all, nil
}

// statsClient bounds every /stats probe so a wedged proxy cannot hang
// waitReachable past its deadline.
var statsClient = &http.Client{Timeout: 10 * time.Second}

// fetchStats reads and decodes the proxy's /stats snapshot.
func fetchStats(proxyURL string) (proxy.Stats, error) {
	resp, err := statsClient.Get(proxyURL + "/stats")
	if err != nil {
		return proxy.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return proxy.Stats{}, fmt.Errorf("stats: %s", resp.Status)
	}
	var s proxy.Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return proxy.Stats{}, err
	}
	return s, nil
}
