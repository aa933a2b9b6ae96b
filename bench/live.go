package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"streamcache/internal/proxy"
)

const (
	// conns is the number of closed-loop client connections: one per
	// core of the box the bounds were sized on.
	conns = 2
	// nodeSlice and refSlice are how long the client stays on the nodes
	// under test and on the reference path before switching. The host's
	// speed on this kind of work drifts by a factor of two to three over
	// seconds; neighbouring slices see nearly the same host. The nodes
	// get three quarters of the time because their latency tail needs
	// the samples.
	nodeSlice = 150 * time.Millisecond
	refSlice  = 50 * time.Millisecond
	// speedSpan is how many reference slices on either side of a node
	// slice's own its speed is the median of.
	speedSpan = 2
	// minSamples is the least TTFB samples a window may report a median
	// from. cluster_hop gathers 700 to 1300 in a window, depending on the
	// host's mood, so the issue's 1000 (sized for a p99) failed sound runs.
	minSamples = 200
	// verifyEvery is how often a timed request compares every body byte;
	// the others check status and length only, so the client is not what
	// is measured. The warm-up pass compares every byte of every object.
	verifyEvery = 16
	// setups is how many times a topology is booted, warmed and measured
	// for its share of the run; every reported number is the median of
	// the windows. Four, because the median of an even count averages the
	// middle two, which steadies the cold pass: a boot gives one short
	// sample of it.
	setups = 4
	// maxWarmPasses bounds the passes that fill an all-hits cache.
	maxWarmPasses = 12

	// catalogSeed is the seed of both catalogs' object sizes. --seed sets
	// the request order only: the sizes are lognormal, a quarter of the
	// requests go to the ten most popular objects, and what those ten
	// happen to weigh moved every rate and latency by 10 to 18 % from
	// one seed to the next, twice what the host's own noise does.
	catalogSeed = 1

	rateKBps     = 512 // playback rate of every object, as proxyd's default
	drainTimeout = 15 * time.Second
	readyTimeout = 10 * time.Second
)

// catalogSpec is a catalog size and the reference path's goodput on it,
// in MB/s, on the box the benchmark was sized on (2 vCPUs, Xeon 2.1 GHz,
// quiet phases). Every timed number is scaled by how the reference path
// did in the same moments against this constant, so a run on a host that
// is momentarily slow reports what the quiet host would have.
type catalogSpec struct {
	objects int
	meanKB  int64
	refMBps float64
}

// hostSpeed is the host's speed against the sizing box's when the
// reference path moves bytesPerSecond.
func (c catalogSpec) hostSpeed(bytesPerSecond float64) float64 {
	return bytesPerSecond / (c.refMBps * 1e6)
}

func (e *env) catalogS() catalogSpec {
	if e.quick {
		return catalogSpec{200, 16, 880}
	}
	return catalogSpec{2000, 16, 880}
}

func (e *env) catalogL() catalogSpec {
	if e.quick {
		return catalogSpec{24, 256, 3900}
	}
	return catalogSpec{256, 1024, 3900}
}

// mb scales a cache size with the quick catalogs (1/40 of the bytes).
func (e *env) mb(full int) string {
	if e.quick {
		full = max(full/40, 1)
	}
	return strconv.Itoa(full)
}

// liveSpec is one live workload: a catalog, a request order and the
// proxyd processes in front of the driver's origin.
type liveSpec struct {
	name     string
	catalog  catalogSpec
	traceLen int
	allHits  bool // the cache holds the whole catalog: the window must not touch the origin
	addrs    int  // nodes to reserve an address for
	// nodes returns the proxyd argument lists (catalog and origin flags
	// are added by boot) given the reserved addresses, and how many of
	// the leading nodes take client requests.
	nodes func(addrs []string) (args [][]string, entry int)
}

func single(args ...string) func([]string) ([][]string, int) {
	return func(addrs []string) ([][]string, int) {
		return [][]string{append([]string{"-proxy-addr", addrs[0], "-shards", "2"}, args...)}, 1
	}
}

func hitSmall(e *env) liveSpec {
	return liveSpec{name: "hit_small", catalog: e.catalogS(), traceLen: 20000, allHits: true, addrs: 1,
		nodes: single("-policy", "IF", "-cache-mb", "1024")}
}

func hitLarge(e *env) liveSpec {
	return liveSpec{name: "hit_large", catalog: e.catalogL(), traceLen: 4096, allHits: true, addrs: 1,
		nodes: single("-policy", "IF", "-cache-mb", "1024")}
}

func missChurn(e *env) liveSpec {
	return liveSpec{name: "miss_churn", catalog: e.catalogL(), traceLen: 4096, addrs: 1,
		nodes: single("-policy", "LRU", "-cache-mb", e.mb(32))}
}

func clusterHop(e *env) liveSpec {
	return liveSpec{name: "cluster_hop", catalog: e.catalogL(), traceLen: 4096, addrs: 3,
		nodes: func(a []string) ([][]string, int) {
			peers := "http://" + a[0] + ",http://" + a[1]
			edge := func(i int) []string {
				return []string{"-proxy-addr", a[i], "-shards", "2", "-policy", "LRU", "-cache-mb", e.mb(16),
					"-tier", "edge", "-peers", peers, "-node-index", strconv.Itoa(i), "-parent", "http://" + a[2]}
			}
			parent := []string{"-proxy-addr", a[2], "-shards", "2", "-policy", "LRU", "-cache-mb", e.mb(64), "-tier", "parent"}
			return [][]string{edge(0), edge(1), parent}, 2
		}}
}

// topology is one booted set of proxyd processes.
type topology struct {
	procs []*child
	addrs []string // host:port per node, entry nodes first
	entry int
}

func (e *env) boot(spec liveSpec, originAddr string) (*topology, error) {
	addrs := make([]string, spec.addrs)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	argv, entry := spec.nodes(addrs)
	t := &topology{addrs: addrs, entry: entry}
	for _, args := range argv {
		args = append(args, "-origin-url", "http://"+originAddr, "-objects", strconv.Itoa(spec.catalog.objects),
			"-mean-kb", strconv.FormatInt(spec.catalog.meanKB, 10), "-rate-kbps", strconv.Itoa(rateKBps),
			"-seed", strconv.Itoa(catalogSeed), "-drain-timeout", "10")
		p, err := e.spawn("proxyd", args...)
		if err != nil {
			return t, err
		}
		t.procs = append(t.procs, p)
	}
	for i, p := range t.procs {
		if err := awaitReady(p, "http://"+addrs[i]+"/stats", readyTimeout); err != nil {
			return t, err
		}
	}
	return t, nil
}

// shutdown drains every node and counts an unclean or hung drain as a
// failed operation.
func (t *topology) shutdown(o *outcome) {
	for _, p := range t.procs {
		p.terminate()
	}
	for _, p := range t.procs {
		o.check(p.waitExit(drainTimeout), "%s did not drain with exit 0 (log %s)", p.name, p.log)
	}
}

func (t *topology) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range t.procs {
		s, err := p.liveCPUSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// stats sums the counters of every node: requests at the entry nodes,
// origin-tier bytes everywhere.
func (t *topology) stats() (entryRequests, originBytes int64, err error) {
	for i, a := range t.addrs {
		resp, err := control.Get("http://" + a + "/stats")
		if err != nil {
			return 0, 0, err
		}
		var s proxy.Stats
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("%s/stats: %w", a, err)
		}
		if i < t.entry {
			entryRequests += s.Requests
		}
		originBytes += s.TierBytes["origin"]
	}
	return entryRequests, originBytes, nil
}

// lane is one client connection's pair of paths: to its entry node
// (connection g talks to entry node g mod n) and straight to the origin.
type lane struct {
	node, ref *conn
}

func newLanes(t *topology, originAddr string) []lane {
	lanes := make([]lane, conns)
	for g := range lanes {
		lanes[g] = lane{node: newConn(t.addrs[g%t.entry], ""), ref: newConn(originAddr, referenceHeader+": 1\r\n")}
	}
	return lanes
}

func closeLanes(lanes []lane) {
	for _, l := range lanes {
		l.node.close()
		l.ref.close()
	}
}

// coldPass requests every object once through the nodes, hottest
// (lowest ID) last so an under-sized cache ends up holding the head of
// the popularity order, and compares every byte. With reference set,
// each fetch is followed by the same object straight from the origin.
// It returns the seconds each path took, summed over the connections.
func coldPass(lanes []lane, content [][]byte, reference bool, o *outcome) (nodeSeconds, refSeconds float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var node, ref time.Duration
			var errs []error
			for id := len(content) - 1 - g; id >= 0; id -= len(lanes) {
				t0 := time.Now()
				_, err := lanes[g].node.fetch(id, content[id], true)
				t1 := time.Now()
				errs = append(errs, err)
				node += t1.Sub(t0)
				if reference {
					if _, err = lanes[g].ref.fetch(id, content[id], true); err != nil {
						errs = append(errs, err)
					}
					ref += time.Since(t1)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			nodeSeconds += node.Seconds()
			refSeconds += ref.Seconds()
			for _, err := range errs {
				o.check(err == nil, "warm-up: %v", err)
			}
		}()
	}
	wg.Wait()
	return nodeSeconds, refSeconds
}

// sliceStat is what one connection did in one slice.
type sliceStat struct {
	bytes, reqs int64
	busy        time.Duration // summed request durations
	ttfb        []float64     // microseconds, node slices only
}

// runLive boots, warms and measures the workload's topology setups
// times and reports the median of the windows: how fast one booted set
// of processes serves differs from the next by more than one of them
// drifts while it runs, so short windows on several boots are steadier
// than one long window on one.
func runLive(e *env, spec liveSpec) (*outcome, error) {
	o := newOutcome()
	// Set-up time is scaled like the timed numbers: computing the
	// content by the probe, each boot and warm-up by its cold pass's
	// reference fetches.
	procStart, host := time.Now(), startProbe()
	d, err := newCatalogData(e, spec.catalog, spec.traceLen)
	corpusSeconds := time.Since(procStart).Seconds() * host.speed()
	if err != nil {
		return nil, err
	}
	defer d.org.close()
	windows := map[string][]float64{}
	for i := 0; i < setups; i++ {
		w, err := e.liveWindow(spec, d, e.seconds/setups, o)
		if err != nil {
			return nil, err
		}
		for name, v := range w {
			windows[name] = append(windows[name], v)
		}
	}
	for name, vals := range windows {
		o.values[name] = median(vals)
	}
	o.values["setup_s"] += corpusSeconds
	return o, nil
}

// liveWindow is one boot of the topology: cold pass, warm-up, seconds of
// measurement, the cross-check against the nodes' counters and the drain.
// It returns the window's end-to-end metrics.
func (e *env) liveWindow(spec liveSpec, d *catalogData, seconds float64, o *outcome) (map[string]float64, error) {
	content, catalogBytes, trace, org := d.content, d.bytes, d.trace, d.org
	bootStart := time.Now()
	originAtBoot := org.bytes.Load()
	top, err := e.boot(spec, org.addr)
	if err != nil {
		return nil, err
	}
	lanes := newLanes(top, org.addr)
	defer closeLanes(lanes)
	cpu0, err := top.cpuSeconds()
	if err != nil {
		return nil, err
	}
	nodeS, refS := coldPass(lanes, content, true, o)
	cpu1, err := top.cpuSeconds()
	if err != nil {
		return nil, err
	}
	// The host's speed during the pass, against the sizing box's.
	coldSpeed := spec.catalog.hostSpeed(float64(catalogBytes) / (refS / conns))
	warmPasses := 1
	// An unthrottled origin outruns the client, the relay ring laps
	// its only reader and the fetch is abandoned with a partial
	// prefix stored, so one pass does not fill a cache that has room
	// for everything. Repeat until a pass leaves the origin alone.
	for before := originAtBoot; spec.allHits && org.bytes.Load() != before; warmPasses++ {
		if warmPasses == maxWarmPasses {
			o.check(false, "cache still fetching from the origin after %d warm-up passes", warmPasses)
			break
		}
		before = org.bytes.Load()
		coldPass(lanes, content, false, o)
	}
	setupSeconds := time.Since(bootStart).Seconds() * coldSpeed
	fmt.Printf("   %s: unscaled: cold pass %.3f s, %.3f CPU-s, set-up %.3f s; host speed %.3f then\n",
		spec.name, nodeS/conns, cpu1-cpu0, time.Since(bootStart).Seconds(), coldSpeed)
	originAtWindow := org.bytes.Load()
	_, nodesOriginAtWindow, err := top.stats()
	if err != nil {
		return nil, err
	}

	// The measured time: each connection walks the trace from its own
	// offset, so the request order is a function of the seed alone, and
	// switches every slice between its node and the reference path. A
	// request belongs to the slice it starts in.
	slices := 2 * int(seconds*float64(time.Second)/float64(nodeSlice+refSlice))
	if slices == 0 {
		return nil, fmt.Errorf("-seconds %g is shorter than %d node and reference slices", e.seconds, setups)
	}
	// Even slices are the nodes', odd ones the reference path's.
	sliceStart := func(k int) time.Duration {
		return time.Duration(k/2)*(nodeSlice+refSlice) + time.Duration(k%2)*nodeSlice
	}
	sliceAt := func(t time.Duration) int {
		k := 2 * int(t/(nodeSlice+refSlice))
		if t%(nodeSlice+refSlice) >= nodeSlice {
			k++
		}
		return k
	}
	stats := make([][]sliceStat, conns)
	failures := make([][]string, conns)    // requests to the nodes that failed
	refFailures := make([][]string, conns) // reference fetches that failed
	attempted := make([]int64, conns)
	cpuAt := make([]float64, slices+1)
	if cpuAt[0], err = top.cpuSeconds(); err != nil {
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		stats[g] = make([]sliceStat, slices)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next, refNext := g, g; ; {
				t0 := time.Now()
				k := sliceAt(t0.Sub(start))
				if k >= slices {
					return
				}
				st := &stats[g][k]
				if k%2 == 1 {
					// Reference slice: objects in trace order, straight from the origin.
					id := trace[refNext%len(trace)]
					refNext += conns
					if _, err := lanes[g].ref.fetch(id, content[id], false); err != nil {
						refFailures[g] = append(refFailures[g], "reference path: "+err.Error())
						continue
					}
					st.bytes += int64(len(content[id]))
					st.busy += time.Since(t0)
					continue
				}
				id := trace[next%len(trace)]
				verify := (next/conns)%verifyEvery == 0
				next += conns
				attempted[g]++
				ttfb, err := lanes[g].node.fetch(id, content[id], verify)
				if err != nil {
					failures[g] = append(failures[g], err.Error())
					continue
				}
				st.bytes += int64(len(content[id]))
				st.reqs++
				st.busy += time.Since(t0)
				st.ttfb = append(st.ttfb, float64(ttfb.Nanoseconds())/1e3)
			}
		}()
	}
	for k := 1; k <= slices; k++ {
		time.Sleep(time.Until(start.Add(sliceStart(k))))
		if cpuAt[k], err = top.cpuSeconds(); err != nil {
			return nil, err
		}
	}
	wg.Wait()

	nodeRequests := int64(warmPasses * len(content)) // what the entry nodes should have counted
	for g := range failures {
		nodeRequests += attempted[g]
		// Reference fetches are not the system's operations unless they break the run.
		bad := append(failures[g], refFailures[g]...)
		o.attempted += attempted[g] + int64(len(refFailures[g]))
		o.failed += int64(len(bad))
		o.problems = append(o.problems, bad[:min(len(bad), 5)]...)
	}

	// Each node slice is scaled by the host's speed in the reference
	// slices around it; rates are per busy second, so a request that runs
	// past its slice's end costs the time it really took.
	type slicePair struct {
		k         int // the node slice's index
		node, ref sliceStat
	}
	var (
		pairs         []slicePair
		refRate       []float64 // per pair: the reference path's bytes per second
		measuredBytes int64
	)
	for k := 0; k < slices; k += 2 {
		p := slicePair{k: k}
		for g := 0; g < conns; g++ {
			n, r := stats[g][k], stats[g][k+1]
			p.node.bytes, p.node.reqs, p.node.busy = p.node.bytes+n.bytes, p.node.reqs+n.reqs, p.node.busy+n.busy
			p.ref.bytes, p.ref.busy = p.ref.bytes+r.bytes, p.ref.busy+r.busy
		}
		measuredBytes += p.node.bytes
		if p.node.reqs == 0 || p.ref.bytes == 0 {
			continue // a stall ate a whole slice; nothing to scale by
		}
		pairs = append(pairs, p)
		refRate = append(refRate, float64(p.ref.bytes)/(p.ref.busy.Seconds()/conns))
	}
	var (
		goodput, reqRate, speeds, ttfb []float64
		cpuScaled, cpuRaw              float64
		usedBytes, usedReqs            int64
		nodeBusy, refBytes, refBusy    float64
	)
	for i, p := range pairs {
		// One 50 ms reference slice is itself a noisy reading of a host
		// whose speed changes over seconds: take the median of the five
		// around the node slice.
		near := refRate[max(0, i-speedSpan):min(len(pairs), i+speedSpan+1)]
		speed := spec.catalog.hostSpeed(median(append([]float64(nil), near...)))
		busy := p.node.busy.Seconds() / conns
		speeds = append(speeds, speed)
		goodput = append(goodput, float64(p.node.bytes)/1e6/busy/speed)
		reqRate = append(reqRate, float64(p.node.reqs)/busy/speed)
		for g := 0; g < conns; g++ {
			for _, t := range stats[g][p.k].ttfb {
				ttfb = append(ttfb, t*speed)
			}
		}
		cpuScaled += (cpuAt[p.k+1] - cpuAt[p.k]) * speed
		cpuRaw += cpuAt[p.k+1] - cpuAt[p.k]
		usedBytes += p.node.bytes
		usedReqs += p.node.reqs
		nodeBusy += busy
		refBytes += float64(p.ref.bytes)
		refBusy += p.ref.busy.Seconds() / conns
	}
	if len(speeds) == 0 {
		return nil, fmt.Errorf("%s: no slice completed a request on both paths", spec.name)
	}
	o.check(len(ttfb) >= minSamples || e.quick, "%d TTFB samples in a window, need %d", len(ttfb), minSamples)
	sort.Float64s(ttfb)
	w := map[string]float64{
		"goodput_mb_s":   median(goodput),
		"req_per_s":      median(reqRate),
		"ttfb_p50_us":    percentile(ttfb, 50),
		"cpu_s_per_gb":   cpuScaled / (float64(usedBytes) / 1e9),
		"cpu_us_per_req": cpuScaled * 1e6 / float64(usedReqs),
		// On a live workload the sweep is the cold pass over the catalog:
		// every object once through empty caches, every byte compared.
		"sweep_wall_s": nodeS / conns * coldSpeed,
		"sweep_cpu_s":  (cpu1 - cpu0) * coldSpeed,
		"setup_s":      setupSeconds,
	}

	rawGoodput, refGoodput := float64(usedBytes)/1e6/nodeBusy, refBytes/1e6/refBusy
	// The tail is printed, not reported: see README, "ttfb_p99_us".
	fmt.Printf("   %s: %d TTFB samples (p99 %.1f us) in %d node slices of %v; host speed %.3f of the sizing box (median)\n",
		spec.name, len(ttfb), percentile(ttfb, 99), len(speeds), nodeSlice, median(speeds))
	fmt.Printf("   %s: unscaled: goodput %.1f MB/s, %.1f req/s, %.1f us CPU per request; reference path %.1f MB/s = %.2f x the nodes'\n",
		spec.name, rawGoodput, float64(usedReqs)/nodeBusy, cpuRaw*1e6/float64(usedReqs), refGoodput, refGoodput/rawGoodput)
	if spec.allHits && refGoodput < 2*rawGoodput {
		fmt.Printf("   %s: WARNING: client and origin alone move less than twice what the nodes serve; the harness may be the bottleneck\n", spec.name)
	}

	// The nodes' own counters must agree with what the client and the
	// origin saw; counters are bumped after the last body byte, so give
	// them a moment.
	var gotRequests, nodesOrigin, originSinceBoot int64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if gotRequests, nodesOrigin, err = top.stats(); err != nil {
			return nil, err
		}
		originSinceBoot = org.bytes.Load() - originAtBoot
		// Edges also count the requests their peers send them.
		requestsOK := gotRequests == nodeRequests || (top.entry > 1 && gotRequests >= nodeRequests)
		// An abandoned fetch leaves bytes the origin wrote unread in the
		// socket, so the origin may have sent somewhat more than the
		// nodes consumed, never less.
		originOK := nodesOrigin <= originSinceBoot && float64(originSinceBoot-nodesOrigin) <= 0.1*float64(originSinceBoot)+16<<20
		if (requestsOK && originOK) || time.Now().After(deadline) {
			o.check(requestsOK, "/stats count %d requests, the client sent %d", gotRequests, nodeRequests)
			o.check(originOK, "/stats count %d origin bytes, the origin sent %d", nodesOrigin, originSinceBoot)
			break
		}
	}
	if spec.allHits {
		touched := org.bytes.Load() - originAtWindow
		o.check(touched == 0, "fully warmed cache fetched %d origin bytes in the window", touched)
	}
	top.shutdown(o)

	// Origin bytes over delivered bytes for a fixed amount of work: the
	// warm-up and one pass over the trace. The window alone reads exactly
	// 0 on a fully warmed cache, which a relative bound cannot guard, and
	// the window as run would make a faster run look like one that caches
	// more, because it delivers more against the same cold fill.
	passes := float64(measuredBytes) / float64(d.traceBytes)
	w["origin_byte_frac"] = (float64(nodesOriginAtWindow) + float64(nodesOrigin-nodesOriginAtWindow)/passes) /
		float64(catalogBytes+d.traceBytes)
	fmt.Printf("   %s: nodes fetched %d origin bytes warming up (%d passes, catalog %d bytes) and %d in %.2f passes over the trace (%d bytes); the origin sent %d\n",
		spec.name, nodesOriginAtWindow, warmPasses, catalogBytes, nodesOrigin-nodesOriginAtWindow, passes, d.traceBytes, originSinceBoot)

	for _, p := range top.procs {
		w["peak_rss_mb"] += p.peakRSSMB()
	}
	return w, nil
}
