package load

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/experiments"
	"streamcache/internal/proxy"
	"streamcache/internal/units"
	"streamcache/internal/workload"
)

// startStack brings up an in-process origin + proxy pair and returns
// the catalog and the proxy's base URL.
func startStack(t *testing.T, objects int, meanKB int64, originKBps float64, cacheBytes int64) (*proxy.Catalog, string) {
	t.Helper()
	catalog, err := proxy.BuildCatalog(objects, meanKB, 512, 1)
	if err != nil {
		t.Fatalf("BuildCatalog: %v", err)
	}
	origin, err := proxy.NewOrigin(catalog, units.KBps(originKBps))
	if err != nil {
		t.Fatalf("NewOrigin: %v", err)
	}
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)
	px, err := proxy.New(proxy.Config{
		Catalog:    catalog,
		OriginURL:  originSrv.URL,
		CacheBytes: cacheBytes,
		NewPolicy: func() core.Policy {
			p, err := core.PolicyByName("LRU", 0.5)
			if err != nil {
				panic(err)
			}
			return p
		},
	})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	proxySrv := httptest.NewServer(px)
	t.Cleanup(proxySrv.Close)
	return catalog, proxySrv.URL
}

// runOpen builds opts.Spec's timed schedule for (seed, horizon) at
// opts.RateScale and runs it.
func runOpen(opts Options, seed int64, horizon float64) ([]Outcome, *Report, error) {
	items, err := BuildSchedule(opts.Spec, opts.Catalog, nil, seed, horizon, 0, cmp.Or(opts.RateScale, 1))
	if err != nil {
		return nil, nil, err
	}
	return Run(opts, items)
}

// checkAccounting asserts the engine's invariants on a report: every
// scheduled item ends in exactly one of the three fates, the classes
// add up to the aggregate, and no one is served more cached bytes than
// it downloaded.
func checkAccounting(t *testing.T, r *Report) {
	t.Helper()
	tot := &r.Total
	if tot.Issued != tot.Completed+tot.Shed+tot.Failed {
		t.Fatalf("accounting broken: issued %d != completed %d + shed %d + failed %d",
			tot.Issued, tot.Completed, tot.Shed, tot.Failed)
	}
	var sum ClassSummary
	for _, c := range r.Classes {
		accumulate(&sum, &c)
		if c.HitBytes > c.Bytes {
			t.Errorf("class %s: %d hit bytes of %d downloaded", c.Name, c.HitBytes, c.Bytes)
		}
	}
	want := ClassSummary{
		Issued: tot.Issued, Completed: tot.Completed, Shed: tot.Shed, Failed: tot.Failed,
		Violations: tot.Violations, GoodCompleted: tot.GoodCompleted, GoodBytes: tot.GoodBytes,
		Bytes: tot.Bytes, HitBytes: tot.HitBytes, PrefixHits: tot.PrefixHits, Elapsed: tot.Elapsed,
	}
	if sum != want {
		t.Fatalf("per-class totals %+v disagree with aggregate %+v", sum, tot)
	}
}

func TestClosedScheduleWaitsForSlots(t *testing.T) {
	// An untimed schedule against two edges that count their concurrent
	// requests: with N slots the house fills to exactly N and stays
	// there, nothing is shed, every item is issued once, and item i
	// reaches edge i mod 2.
	const slots, requests = 3, 30
	catalog, err := proxy.BuildCatalog(6, 16, 512, 1)
	if err != nil {
		t.Fatalf("BuildCatalog: %v", err)
	}
	ids := catalog.IDs()
	var inflight atomic.Int64
	var mu sync.Mutex
	var peak int64
	served := make([]map[int]int, 2) // per edge: object id -> requests
	edges := make([]string, 2)
	for e := range edges {
		served[e] = map[int]int{}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			mu.Lock()
			peak = max(peak, n)
			var id int
			fmt.Sscanf(r.URL.Path, "/objects/%d", &id)
			served[e][id]++
			mu.Unlock()
			time.Sleep(5 * time.Millisecond) // hold the slot long enough to overlap
			meta, _ := catalog.Get(id)
			w.Write(make([]byte, meta.Size))
		}))
		t.Cleanup(srv.Close)
		edges[e] = srv.URL
	}
	trace := make([]workload.Request, requests)
	for i := range trace {
		trace[i] = workload.Request{ObjectID: ids[i%len(ids)], Fraction: 1}
	}

	spec := SingleClass(1, 60_000)
	outcomes, report, err := Run(Options{
		Edges:       edges,
		Catalog:     catalog,
		Spec:        spec,
		MaxInflight: slots,
	}, ClosedSchedule(spec, trace))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkAccounting(t, report)
	if tot := report.Total; tot.Shed != 0 || tot.Issued != requests || tot.Completed != requests {
		t.Fatalf("issued %d completed %d shed %d failed %d, want all %d completed and none shed",
			tot.Issued, tot.Completed, tot.Shed, tot.Failed, requests)
	}
	if peak != slots {
		t.Errorf("peak concurrency %d, want exactly the %d slots", peak, slots)
	}
	for i, o := range outcomes {
		if o.Item.Index != i || o.State != Completed {
			t.Fatalf("outcome %d: index %d state %s %s", i, o.Item.Index, o.State, o.Err)
		}
	}
	// ids[i%6] at position i: even positions (edge 0) only ever ask for
	// ids[0], ids[2], ids[4], odd positions (edge 1) for the others.
	for e := range served {
		total := 0
		for k, id := range ids {
			if n := served[e][id]; k%2 != e && n != 0 {
				t.Errorf("edge %d served object %d %d times; items for it go to edge %d", e, id, n, k%2)
			} else {
				total += n
			}
		}
		if total != requests/2 {
			t.Errorf("edge %d served %d requests, want %d", e, total, requests/2)
		}
	}
}

func TestPartialViewingHitBytesBounded(t *testing.T) {
	// A session that hangs up inside a cached prefix is told about the
	// whole prefix (X-Cache: HIT-PREFIX; bytes=...) but was served only
	// what it read: hit bytes never exceed bytes, and the
	// bandwidth-weighted hit ratio never exceeds 1.
	catalog, proxyURL := startStack(t, 6, 256, 0, 64*units.MB)
	for _, id := range catalog.IDs() {
		if _, err := proxy.Fetch(fmt.Sprintf("%s/objects/%d", proxyURL, id)); err != nil {
			t.Fatalf("warm %d: %v", id, err)
		}
	}
	spec, err := ParseSpec(strings.NewReader(`{"classes": [{"name": "zappers",
	  "arrival": {"process": "poisson", "rate": 40},
	  "viewing": {"dist": "uniform", "min_fraction": 0.05},
	  "slo": {"class": "relaxed"}}]}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	outcomes, report, err := runOpen(Options{Edges: []string{proxyURL}, Catalog: catalog, Spec: spec}, 31, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkAccounting(t, report)
	if report.Total.PrefixHits == 0 {
		t.Fatal("no prefix hits against a warmed proxy; the test exercises nothing")
	}
	for _, o := range outcomes {
		if o.HitBytes > o.Bytes {
			t.Errorf("item %d: %d hit bytes of %d read", o.Item.Index, o.HitBytes, o.Bytes)
		}
	}
	col := slices.Index(experiments.LiveCapacityHeader, "bw_hit_ratio")
	if ratio, err := strconv.ParseFloat(report.SummaryRow(0)[col], 64); err != nil || ratio > 1 || ratio <= 0 {
		t.Errorf("bw_hit_ratio = %q, want in (0, 1]", report.SummaryRow(0)[col])
	}
}

func TestOpenLoopAchievedRateMatchesConfigured(t *testing.T) {
	// An unloaded proxy at low offered rate must deliver the configured
	// rate: nothing shed, nothing failed, achieved within tolerance.
	// Time scale 10 compresses the 20-workload-second horizon to ~2s of
	// wall clock, which also exercises the compression path.
	catalog, proxyURL := startStack(t, 10, 64, 0, 64*units.MB)
	const configured = 10.0
	outcomes, report, err := runOpen(Options{
		Edges:     []string{proxyURL},
		Catalog:   catalog,
		Spec:      SingleClass(configured, 60_000),
		TimeScale: 10,
		Verify:    true,
	}, 11, 20)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkAccounting(t, report)
	if report.Total.Shed != 0 {
		t.Errorf("unloaded run shed %d arrivals", report.Total.Shed)
	}
	if report.Total.Failed != 0 {
		for _, o := range outcomes {
			if o.State == Failed {
				t.Errorf("failure: %s", o.Err)
				break
			}
		}
		t.Fatalf("unloaded run failed %d arrivals", report.Total.Failed)
	}
	if report.Total.Issued < 100 {
		t.Fatalf("only %d arrivals issued, want ~200", report.Total.Issued)
	}
	// Achieved rate is reported in workload req/s, directly comparable
	// to the configured Poisson rate. The wall clock includes the drain
	// tail after the last arrival, so allow a generous band — and a
	// wider one under the race detector, whose instrumentation slows
	// the dispatch loop and stretches wall time on 1-core machines.
	tol := 0.35
	if raceEnabled {
		tol = 0.7
	}
	if a := report.Total.AchievedRPS; math.Abs(a-configured) > tol*configured {
		t.Errorf("achieved %.2f workload-rps, configured %.2f, want within %d%%", a, configured, int(tol*100))
	}
}

func TestOpenLoopOverdriveShedsAndAccounts(t *testing.T) {
	// Overdrive a tiny proxy: a slow origin path plus a tiny in-flight
	// cap means most arrivals find the engine saturated. They must be
	// shed — not queued — and the books must still balance.
	catalog, proxyURL := startStack(t, 5, 256, 128, units.MB)
	_, report, err := runOpen(Options{
		Edges:       []string{proxyURL},
		Catalog:     catalog,
		Spec:        SingleClass(100, 250),
		TimeScale:   1,
		MaxInflight: 2,
	}, 12, 1.5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkAccounting(t, report)
	if report.Total.Shed == 0 {
		t.Fatal("overdriven run shed nothing; the engine is queueing (closed-loop relapse)")
	}
	if frac := report.Total.SLOViolationFrac; frac < 0.5 {
		t.Errorf("overdriven SLO violation fraction %.3f, want >= 0.5", frac)
	}

	// Same stack, gentle load: the violation fraction must sit clearly
	// below the overdriven one — this is the signal the ramp sweep knees on.
	_, calm, err := runOpen(Options{
		Edges:       []string{proxyURL},
		Catalog:     catalog,
		Spec:        SingleClass(2, 60_000),
		TimeScale:   1,
		MaxInflight: 64,
	}, 13, 1.5)
	if err != nil {
		t.Fatalf("Run (calm): %v", err)
	}
	checkAccounting(t, calm)
	if calm.Total.SLOViolationFrac >= report.Total.SLOViolationFrac {
		t.Errorf("calm violation frac %.3f not below overdriven %.3f",
			calm.Total.SLOViolationFrac, report.Total.SLOViolationFrac)
	}
}

func TestRampSweepFindsKnee(t *testing.T) {
	// Sweep offered load across ramp levels against one warm proxy and
	// check the emitted live-capacity table: the offered-load column is
	// monotone and the SLO-violation fraction crosses the knee threshold
	// at some level.
	catalog, proxyURL := startStack(t, 5, 256, 256, units.MB)
	levels := []float64{1, 20, 200}
	sink := &experiments.TableSink{}
	if err := sink.Begin(experiments.LiveCapacityMeta("test ramp")); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for li, scale := range levels {
		_, report, err := runOpen(Options{
			Edges:       []string{proxyURL},
			Catalog:     catalog,
			Spec:        SingleClass(1.5, 500),
			MaxInflight: 4,
			RateScale:   scale,
		}, 21, 1.5)
		if err != nil {
			t.Fatalf("Run level %d: %v", li, err)
		}
		checkAccounting(t, report)
		if err := sink.Row(report.SummaryRow(li)); err != nil {
			t.Fatalf("Row: %v", err)
		}
	}
	if err := sink.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	table := sink.Table()
	if got, want := len(table.Header), len(experiments.LiveCapacityHeader); got != want {
		t.Fatalf("summary row width %d, want %d", got, want)
	}

	offeredCol := -1
	for i, h := range table.Header {
		if h == "offered_rps" {
			offeredCol = i
		}
	}
	prev := -1.0
	for li, row := range table.Rows {
		offered, err := strconv.ParseFloat(row[offeredCol], 64)
		if err != nil {
			t.Fatalf("level %d: bad offered_rps %q", li, row[offeredCol])
		}
		if offered < prev {
			t.Fatalf("offered_rps not monotone at level %d: %v after %v", li, offered, prev)
		}
		prev = offered
	}

	knee := experiments.FindKnee(table, 0.3)
	if knee <= 0 {
		t.Fatalf("FindKnee = %d, want a crossing after the first (unloaded) level", knee)
	}
	if experiments.FindKnee(table, 1.1) != -1 {
		t.Error("FindKnee crossed an impossible threshold > 1")
	}
}
