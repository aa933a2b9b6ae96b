package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"streamcache/internal/cluster"
	"streamcache/internal/collect"
	"streamcache/internal/core"
	"streamcache/internal/experiments"
	"streamcache/internal/proxy"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

// rungTime is how long a socket rung measures; loop rungs are sized by
// operation count instead.
func (e *env) rungTime() time.Duration {
	if e.quick {
		return 50 * time.Millisecond
	}
	return 400 * time.Millisecond
}

// catalogData is one catalog (sizes from catalogSeed), its content, the
// request order the run's seed gives and an origin serving it.
type catalogData struct {
	spec    catalogSpec
	cat     *proxy.Catalog
	content [][]byte
	bytes   int64
	trace   []int // object IDs in request order
	// traceBytes is what one pass over the trace delivers.
	traceBytes int64
	org        *origin
}

func newCatalogData(e *env, spec catalogSpec, traceLen int) (*catalogData, error) {
	cat, err := proxy.BuildCatalog(spec.objects, spec.meanKB, rateKBps, catalogSeed)
	if err != nil {
		return nil, err
	}
	d := &catalogData{spec: spec, cat: cat, content: buildContent(cat)}
	for _, c := range d.content {
		d.bytes += int64(len(c))
	}
	tr, err := workload.Generate(workload.Config{NumObjects: spec.objects, NumRequests: traceLen, Seed: e.seed})
	if err != nil {
		return nil, err
	}
	for _, r := range tr.Requests {
		d.trace = append(d.trace, r.ObjectID)
		d.traceBytes += int64(len(d.content[r.ObjectID]))
	}
	if d.org, err = startOrigin(d.content); err != nil {
		return nil, err
	}
	return d, nil
}

// coreObjects are the catalog's objects as the cache sees them, by ID.
func (d *catalogData) coreObjects() []core.Object {
	objs := make([]core.Object, len(d.content))
	for id := range objs {
		m, _ := d.cat.Get(id) // every ID below Len is in the catalog
		objs[id] = core.Object{ID: id, Size: m.Size, Duration: m.Duration, Rate: m.Rate, Value: m.Value}
	}
	return objs
}

// ladder holds what the rungs share.
type ladder struct {
	e            *env
	small, large *catalogData
	hitProxy     *proxy.Proxy // warmed over the small catalog by the serve rung
}

func newLadder(e *env) (*ladder, error) {
	small, err := newCatalogData(e, e.catalogS(), 20000)
	if err != nil {
		return nil, err
	}
	large, err := newCatalogData(e, e.catalogL(), 4096)
	if err != nil {
		small.org.close()
		return nil, err
	}
	return &ladder{e: e, small: small, large: large}, nil
}

func (l *ladder) close() {
	l.small.org.close()
	l.large.org.close()
}

// measure runs fn, which performs ops operations, and returns the time
// and heap allocations per operation.
func measure(ops int, fn func()) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// copySink stands in for a socket: it copies what it is given, so a
// zero-copy writer is charged the one copy a real connection costs.
type copySink struct{ buf [64 << 10]byte }

func (s *copySink) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		rest = rest[copy(s.buf[:], rest):]
	}
	return len(p), nil
}

// nullWriter is a ResponseWriter over a copySink with a reused header map.
type nullWriter struct {
	copySink
	header http.Header
}

func newNullWriter() *nullWriter { return &nullWriter{header: http.Header{}} }

func (w *nullWriter) Header() http.Header { return w.header }
func (w *nullWriter) WriteHeader(int)     {}
func (w *nullWriter) Flush()              {}

func (l *ladder) core(o *outcome) error {
	// One shard of hit_small: everything fits, every access is a hit.
	objs := l.small.coreObjects()
	hit, err := core.New(512<<20, core.NewIF())
	if err != nil {
		return err
	}
	replay := func(c *core.Cache, objs []core.Object, trace []int, visit func(core.AccessResult)) {
		for i, id := range trace {
			res := c.Access(objs[id], 1e6, float64(i))
			if visit != nil {
				visit(res)
			}
		}
	}
	replay(hit, objs, l.small.trace, nil)
	const reps = 10
	o.values["core.access_hit_ns"], o.values["core.access_allocs"] = measure(reps*len(l.small.trace), func() {
		for r := 0; r < reps; r++ {
			replay(hit, objs, l.small.trace, nil)
		}
	})

	// One shard of miss_churn: LRU over an eighth of the bytes.
	objs = l.large.coreObjects()
	churn, err := core.New(l.large.bytes/16, core.NewLRU())
	if err != nil {
		return err
	}
	replay(churn, objs, l.large.trace, nil)
	var evictions, victims int
	o.values["core.access_evict_ns"], _ = measure(reps*len(l.large.trace), func() {
		for r := 0; r < reps; r++ {
			replay(churn, objs, l.large.trace, func(res core.AccessResult) {
				if len(res.Victims) > 0 {
					evictions++
					victims += len(res.Victims)
				}
			})
		}
	})
	if evictions > 0 {
		o.values["core.victims_per_evict"] = float64(victims) / float64(evictions)
	}
	return nil
}

// load appends every object of d (up to maxBytes in total) to a fresh
// store in fetch-buffer-sized pieces and returns the bytes stored.
func load(store *proxy.PrefixStore, d *catalogData, maxBytes int64) int64 {
	const piece = 32 << 10
	var stored int64
	for id, body := range d.content {
		if stored+int64(len(body)) > maxBytes {
			break
		}
		for off := 0; off < len(body); off += piece {
			store.AppendAt(id, int64(off), body[off:min(off+piece, len(body))], int64(len(body)))
		}
		stored += int64(len(body))
	}
	return stored
}

func heapInUse() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse)
}

func (l *ladder) store(o *outcome) error {
	sink := &copySink{}

	before := heapInUse()
	small := proxy.NewPrefixStore()
	stored := load(small, l.small, l.small.bytes)
	o.values["proxy.store_overhead_frac"] = (heapInUse() - before) / float64(stored)
	var werr error
	o.values["proxy.store_view_ns"], _ = measure(len(l.small.trace), func() {
		for _, id := range l.small.trace {
			if _, err := small.View(id, int64(len(l.small.content[id]))).WriteTo(sink); err != nil {
				werr = err
			}
		}
	})
	if werr != nil {
		return werr
	}

	large := proxy.NewPrefixStore()
	var loaded int64
	appendNs, _ := measure(1, func() { loaded = load(large, l.large, 64<<20) })
	if loaded == 0 {
		return fmt.Errorf("store rung: no large object fits 64 MiB")
	}
	o.values["proxy.store_append_mb_s"] = float64(loaded) / 1e6 / (appendNs / 1e9)
	const reps = 8
	writeNs, _ := measure(1, func() {
		for r := 0; r < reps; r++ {
			for id := 0; large.Len(id) > 0; id++ {
				if _, err := large.View(id, large.Len(id)).WriteTo(sink); err != nil {
					werr = err
				}
			}
		}
	})
	if werr != nil {
		return werr
	}
	o.values["proxy.store_writeto_mb_s"] = reps * float64(loaded) / 1e6 / (writeNs / 1e9)
	objects := 0
	for large.Len(objects) > 0 {
		objects++
	}
	// Half, then nothing: a mid-object clip and a delete per object.
	o.values["proxy.store_truncate_ns"], _ = measure(2*objects, func() {
		for id := 0; id < objects; id++ {
			large.Truncate(id, large.Len(id)/2)
		}
		for id := 0; id < objects; id++ {
			large.Truncate(id, 0)
		}
	})
	return nil
}

// memTransport is an upstream that answers from memory, honouring
// "Range: bytes=N-", so the in-process miss path measures the proxy
// and not a socket.
type memTransport struct{ content [][]byte }

func (m memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := objectOf(req.URL.Path)
	if id < 0 || id >= len(m.content) {
		return nil, fmt.Errorf("memTransport: no object at %s", req.URL.Path)
	}
	start, ok := rangeStart(req.Header.Get("Range"), len(m.content[id]))
	if !ok {
		return nil, fmt.Errorf("memTransport: bad range %q", req.Header.Get("Range"))
	}
	status := http.StatusOK
	if start > 0 {
		status = http.StatusPartialContent
	}
	body := m.content[id][start:]
	return &http.Response{
		StatusCode: status, Status: http.StatusText(status), Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)), Request: req,
	}, nil
}

// memProxy is a two-shard proxy over d whose upstream is memory.
func memProxy(d *catalogData, policy func() core.Policy, cacheBytes int64) (*proxy.Proxy, error) {
	return proxy.New(proxy.Config{
		Catalog: d.cat, OriginURL: "http://origin.invalid", Shards: 2, CacheBytes: cacheBytes,
		NewPolicy: policy, Client: &http.Client{Transport: memTransport{d.content}},
	})
}

func objectRequests(d *catalogData) ([]*http.Request, error) {
	reqs := make([]*http.Request, len(d.content))
	for id := range reqs {
		r, err := http.NewRequest(http.MethodGet, fmt.Sprintf("http://bench/objects/%d", id), nil)
		if err != nil {
			return nil, err
		}
		reqs[id] = r
	}
	return reqs, nil
}

// fill serves every object until the proxy stores all of d (an upstream
// faster than the reader leaves partial prefixes; see runLive).
func fill(px *proxy.Proxy, d *catalogData, reqs []*http.Request, w *nullWriter) error {
	for pass := 0; px.StoredTotal() < d.bytes; pass++ {
		if pass == maxWarmPasses {
			return fmt.Errorf("in-process proxy stores %d of %d bytes after %d passes", px.StoredTotal(), d.bytes, pass)
		}
		for id := range d.content {
			px.ServeHTTP(w, reqs[id])
		}
		px.Quiesce()
	}
	return nil
}

func (l *ladder) serve(o *outcome) error {
	w := newNullWriter()

	smallReqs, err := objectRequests(l.small)
	if err != nil {
		return err
	}
	if l.hitProxy, err = memProxy(l.small, core.NewIF, 1<<30); err != nil {
		return err
	}
	if err := fill(l.hitProxy, l.small, smallReqs, w); err != nil {
		return err
	}
	o.values["proxy.serve_hit_ns"], o.values["proxy.serve_hit_allocs"] = measure(len(l.small.trace), func() {
		for _, id := range l.small.trace {
			l.hitProxy.ServeHTTP(w, smallReqs[id])
		}
	})

	largeReqs, err := objectRequests(l.large)
	if err != nil {
		return err
	}
	big, err := memProxy(l.large, core.NewIF, 1<<30)
	if err != nil {
		return err
	}
	if err := fill(big, l.large, largeReqs, w); err != nil {
		return err
	}
	trace := l.large.trace[:min(len(l.large.trace), 1024)]
	var served int64
	ns, _ := measure(1, func() {
		for _, id := range trace {
			big.ServeHTTP(w, largeReqs[id])
			served += int64(len(l.large.content[id]))
		}
	})
	o.values["proxy.serve_hit_mb_s"] = float64(served) / 1e6 / (ns / 1e9)

	// Miss path: a cold proxy for every pass, each object once.
	const passes = 3
	objects := min(len(l.large.content), 64)
	var missBytes int64
	var perr error
	ns, allocs := measure(passes*objects, func() {
		for p := 0; p < passes; p++ {
			cold, err := memProxy(l.large, core.NewLRU, 1<<30)
			if err != nil {
				perr = err
				return
			}
			for id := 0; id < objects; id++ {
				cold.ServeHTTP(w, largeReqs[id])
				missBytes += int64(len(l.large.content[id]))
			}
			cold.Quiesce()
		}
	})
	if perr != nil {
		return perr
	}
	o.values["proxy.serve_miss_mb_s"] = float64(missBytes) / 1e6 / (ns * passes * float64(objects) / 1e9)
	o.values["proxy.serve_miss_allocs"] = allocs
	return nil
}

func (l *ladder) cluster(o *outcome) error {
	ring, err := cluster.NewRing(2, 0)
	if err != nil {
		return err
	}
	const calls = 1 << 20
	sum := 0
	o.values["cluster.owner_ns"], _ = measure(calls, func() {
		for i := 0; i < calls; i++ {
			sum += ring.Owner(i & 0xffff)
		}
	})
	_, route, err := cluster.NodeConfig{
		Peers: []string{"http://edge0.invalid", "http://edge1.invalid"}, Self: 0,
		Parent: "http://parent.invalid", Origin: "http://origin.invalid",
	}.Router()
	if err != nil {
		return err
	}
	metas := make([]proxy.Meta, len(l.small.content))
	for id := range metas {
		metas[id], _ = l.small.cat.Get(id) // every ID below Len is in the catalog
	}
	const reps = 100
	o.values["cluster.route_ns"], _ = measure(reps*len(metas), func() {
		for r := 0; r < reps; r++ {
			for _, m := range metas {
				sum += len(route(m).URL)
			}
		}
	})
	if sum < 0 {
		return fmt.Errorf("unreachable: keeps the loops' results alive")
	}
	return nil
}

func (l *ladder) sim(o *outcome) error {
	wcfg := workload.Config{NumObjects: 5000, NumRequests: 100000, Seed: l.e.seed}
	if l.e.quick {
		wcfg.NumObjects, wcfg.NumRequests = 500, 10000
	}
	var w *workload.Workload
	var err error
	ns, _ := measure(1, func() { w, err = workload.Generate(wcfg) })
	if err != nil {
		return err
	}
	o.values["workload.generate_ms"] = ns / 1e6

	// One PB point at 5% of the unique bytes, inputs memoized so the
	// request loop is what is timed.
	cfg := sim.Config{Workload: wcfg, CacheBytes: w.TotalUniqueBytes() / 20, Policy: core.NewPB(),
		Runs: 1, Parallelism: 1, Seed: l.e.seed, Arena: sim.NewArena()}
	flat := func() {
		if _, rerr := sim.Run(cfg); rerr != nil {
			err = rerr
		}
	}
	hierarchy := func(edges, levels int, parent float64, peering sim.PeeringPolicy) func() {
		return func() {
			_, rerr := sim.RunHierarchy(sim.HierarchyConfig{Config: cfg, Edges: edges, Levels: levels, ParentFraction: parent, Peering: peering})
			if rerr != nil {
				err = rerr
			}
		}
	}
	const reps = 3
	perSecond := func(run func()) float64 {
		run() // fills the arena
		ns, _ := measure(1, func() {
			for r := 0; r < reps; r++ {
				run()
			}
		})
		return reps * float64(cfg.Runs) * float64(wcfg.NumRequests) / (ns / 1e9)
	}
	flat()
	ns, allocs := measure(reps*wcfg.NumRequests, func() {
		for r := 0; r < reps; r++ {
			flat()
		}
	})
	o.values["sim.run_req_per_s"] = 1e9 / ns
	o.values["sim.run_allocs_per_req"] = allocs
	o.values["sim.hierarchy_1x1_req_per_s"] = perSecond(hierarchy(1, 1, 0, sim.PeeringNone))
	o.values["sim.hierarchy_2x2_req_per_s"] = perSecond(hierarchy(2, 2, 0.5, sim.PeeringOwner))
	cfg.Runs = 4
	serial := perSecond(flat)
	cfg.Parallelism = 2
	o.values["sim.parallel_speedup"] = perSecond(flat) / serial
	return err
}

// syntheticRows are table rows shaped like a figure's.
func syntheticRows(n int) (experiments.TableMeta, [][]string) {
	meta := experiments.TableMeta{Name: "Rung: synthetic rows", Note: "bench",
		Header: []string{"e", "cache_pct", "policy", "traffic_reduction", "avg_delay_s", "avg_quality", "source"}}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{"0.500", "5.000", "PB", "0.299", strconv.FormatFloat(1000+float64(i)/8, 'f', 1, 64), "0.895", "coarse"}
	}
	return meta, rows
}

// feed pushes a table through sink the way the engine does.
func feed(sink experiments.RowSink, meta experiments.TableMeta, rows [][]string) error {
	if err := sink.Begin(meta); err != nil {
		return err
	}
	for _, row := range rows {
		if err := sink.Row(row); err != nil {
			return err
		}
	}
	return sink.End()
}

func (l *ladder) sinks(o *outcome) error {
	meta, rows := syntheticRows(20000)
	var err error
	perSecond := func(n int, fn func()) float64 {
		ns, _ := measure(n, fn)
		return 1e9 / ns
	}
	o.values["experiments.csv_rows_per_s"] = perSecond(len(rows), func() {
		err = feed(experiments.NewCSVSink(io.Discard), meta, rows)
	})
	if err != nil {
		return err
	}

	// The journal flushes every row to its file, so fewer of them.
	journaled := rows[:5000]
	dir, err := os.MkdirTemp(l.e.work, "journal-")
	if err != nil {
		return err
	}
	o.values["experiments.journal_rows_per_s"] = perSecond(len(journaled), func() {
		var j *experiments.Journal
		if j, err = experiments.CreateJournal(filepath.Join(dir, "rung.jsonl"), "bench"); err != nil {
			return
		}
		if err = feed(experiments.NewJournalSink(j), meta, journaled); err != nil {
			j.Close()
			return
		}
		err = j.Close()
	})
	if err != nil {
		return err
	}

	// Two shards' outputs of the same table, merged back.
	var parts [2]bytes.Buffer
	for s := range parts {
		sink := experiments.NewJSONLSink(&parts[s])
		if err := sink.Begin(meta); err != nil {
			return err
		}
		for i := s; i < len(rows); i += len(parts) {
			if err := sink.IndexedRow(i, rows[i]); err != nil {
				return err
			}
		}
		if err := sink.End(); err != nil {
			return err
		}
	}
	o.values["experiments.merge_rows_per_s"] = perSecond(len(rows), func() {
		err = experiments.MergeShards([]io.Reader{&parts[0], &parts[1]}, experiments.NewCSVSink(io.Discard))
	})
	return err
}

func (l *ladder) collector(o *outcome) error {
	meta, rows := syntheticRows(5000)
	srv := collect.NewServer(1)
	hs, addr, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer hs.Close()
	client := collect.NewClient("http://"+addr, experiments.Shard{Index: 0, Count: 1}, "bench")
	if client.Down() {
		return fmt.Errorf("collector rung: in-process collector unreachable at %s", addr)
	}
	ns, _ := measure(len(rows), func() {
		sink := client.Sink("rung")
		if err = sink.Begin(meta); err != nil {
			return
		}
		for i, row := range rows {
			if err = sink.MetricRow(experiments.MetricRow{Index: i, Row: row, Metric: float64(i), HasMetric: true}); err != nil {
				return
			}
		}
		if err = sink.End(); err != nil {
			return
		}
		err = client.Close() // drains the push log and reports done
	})
	if err != nil {
		return err
	}
	o.values["collect.push_rows_per_s"] = 1e9 / ns
	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		return fmt.Errorf("collector rung: collector never saw its shard done")
	}
	dir, err := os.MkdirTemp(l.e.work, "tables-")
	if err != nil {
		return err
	}
	ns, _ = measure(1, func() { err = srv.WriteTables(dir) })
	o.values["collect.write_tables_ms"] = ns / 1e6
	return err
}

// closedLoop runs fetch on conns goroutines for d and returns the bytes
// moved per second, in MB/s.
func closedLoop(d time.Duration, trace []int, content [][]byte, fetch func(g, id int) error) (float64, error) {
	var mu sync.Mutex
	var total int64
	var first error
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var moved int64
			var err error
			for i := g; err == nil && time.Since(start) < d; i += conns {
				id := trace[i%len(trace)]
				if err = fetch(g, id); err == nil {
					moved += int64(len(content[id]))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			total += moved
			if first == nil {
				first = err
			}
		}()
	}
	wg.Wait()
	return float64(total) / 1e6 / time.Since(start).Seconds(), first
}

func (l *ladder) harness(o *outcome) error {
	d := l.large
	// proxy.Fetch, the load generator's client: it hashes every body.
	mbps, err := closedLoop(l.e.rungTime(), d.trace, d.content, func(_, id int) error {
		_, err := proxy.Fetch(fmt.Sprintf("http://%s/objects/%d", d.org.addr, id))
		return err
	})
	if err != nil {
		return err
	}
	o.values["load.fetch_mb_s"] = mbps

	// The benchmark's own client against its own origin: the reference path.
	ks := make([]*conn, conns)
	for g := range ks {
		ks[g] = newConn(d.org.addr, referenceHeader+": 1\r\n")
		defer ks[g].close()
	}
	mbps, err = closedLoop(l.e.rungTime(), d.trace, d.content, func(g, id int) error {
		_, err := ks[g].fetch(id, d.content[id], false)
		return err
	})
	if err != nil {
		return err
	}
	o.values["bench.client_mb_s"] = mbps

	// The origin's handler alone, no socket.
	reqs, err := objectRequests(d)
	if err != nil {
		return err
	}
	w := newNullWriter()
	trace := d.trace[:min(len(d.trace), 1024)]
	var served int64
	ns, _ := measure(1, func() {
		for _, id := range trace {
			reqs[id].Header.Set(referenceHeader, "1")
			d.org.ServeHTTP(w, reqs[id])
			served += int64(len(d.content[id]))
		}
	})
	o.values["bench.origin_mb_s"] = float64(served) / 1e6 / (ns / 1e9)
	return nil
}

// boot times the real binary from exec to a /stats that answers.
func (l *ladder) boot(o *outcome) error {
	var ms []float64
	for i := 0; i < setups; i++ {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		start := time.Now()
		p, err := l.e.spawn("proxyd", "-proxy-addr", addr, "-origin-url", "http://"+l.small.org.addr,
			"-objects", strconv.Itoa(l.small.spec.objects), "-mean-kb", strconv.FormatInt(l.small.spec.meanKB, 10),
			"-seed", strconv.Itoa(catalogSeed), "-shards", "2", "-policy", "IF", "-cache-mb", "1024")
		if err != nil {
			return err
		}
		if err := awaitReady(p, "http://"+addr+"/stats", readyTimeout); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(start).Microseconds())/1e3)
		p.terminate()
		o.check(p.waitExit(drainTimeout), "proxyd did not drain with exit 0 (log %s)", p.log)
	}
	o.values["proxyd.boot_ms"] = median(ms)
	return nil
}

// overhead serves hit_small in-process over loopback with and without
// the span recorder on the handler, alternating, and reports the share
// of throughput the recorder costs.
func (l *ladder) overhead(o *outcome) error {
	d := l.small
	rate := func(rec *recorder) (float64, error) {
		hs, addr, err := listen(tracedHandler(rec, "overhead", l.hitProxy))
		if err != nil {
			return 0, err
		}
		defer hs.Close()
		ks := make([]*conn, conns)
		for g := range ks {
			ks[g] = newConn(addr, "")
			defer ks[g].close()
		}
		return closedLoop(l.e.rungTime(), d.trace, d.content, func(g, id int) error {
			ks[g].req++
			_, err := ks[g].fetch(id, d.content[id], false)
			return err
		})
	}
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		p, err := rate(nil)
		if err != nil {
			return err
		}
		t, err := rate(newRecorder())
		if err != nil {
			return err
		}
		plain, traced = append(plain, p), append(traced, t)
	}
	o.values["bench.trace_overhead_frac"] = 1 - median(traced)/median(plain)
	return nil
}
