package main

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"streamcache/internal/cluster"
	"streamcache/internal/core"
	"streamcache/internal/proxy"
	"streamcache/internal/units"
)

// inNode is one proxy of an in-process topology on its own listener.
type inNode struct {
	px   *proxy.Proxy
	addr string
	srv  *http.Server
}

// tracedTopology assembles a live workload's nodes in this process from
// the public constructors, every handler and upstream client wrapped by
// the recorder. Entry nodes come first, as in topology.
func (l *ladder) tracedTopology(rec *recorder, name string) (nodes []inNode, entry int, d *catalogData, err error) {
	type nodeSpec struct {
		policy  func() core.Policy
		cacheMB string
		tier    string
	}
	var specs []nodeSpec
	d, entry = l.large, 1
	switch name {
	case "hit_small":
		d, specs = l.small, []nodeSpec{{core.NewIF, "1024", ""}}
	case "hit_large":
		specs = []nodeSpec{{core.NewIF, "1024", ""}}
	case "miss_churn":
		specs = []nodeSpec{{core.NewLRU, l.e.mb(32), ""}}
	case "cluster_hop":
		edge := nodeSpec{core.NewLRU, l.e.mb(16), "edge"}
		specs, entry = []nodeSpec{edge, edge, {core.NewLRU, l.e.mb(64), "parent"}}, 2
	default:
		return nil, 0, nil, fmt.Errorf("no live topology for %q", name)
	}

	// Cluster nodes name each other, so every address exists first.
	lns := make([]net.Listener, len(specs))
	defer func() {
		if err != nil {
			for _, ln := range lns {
				if ln != nil {
					ln.Close()
				}
			}
		}
	}()
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, 0, nil, err
		}
	}
	url := func(i int) string { return "http://" + lns[i].Addr().String() }
	originURL := "http://" + d.org.addr
	for i, s := range specs {
		mb, _ := strconv.ParseInt(s.cacheMB, 10, 64) // written by this file
		addr := lns[i].Addr().String()
		cfg := proxy.Config{
			Catalog: d.cat, OriginURL: originURL, Shards: 2, CacheBytes: mb * units.MB, NewPolicy: s.policy, Tier: s.tier,
			Client: &http.Client{Transport: &tracedTransport{rec: rec, node: addr,
				next: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}},
		}
		if s.tier == "edge" {
			node := cluster.NodeConfig{Peers: []string{url(0), url(1)}, Self: i, Parent: url(2), Origin: originURL,
				PeerHeaderTimeout: 5 * time.Second}
			if cfg.Upstreams, cfg.Router, err = node.Router(); err != nil {
				return nil, 0, nil, err
			}
		}
		px, perr := proxy.New(cfg)
		if perr != nil {
			err = perr
			return nil, 0, nil, err
		}
		srv := &http.Server{Handler: tracedHandler(rec, addr, px), ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = srv.Serve(lns[i]) }() // returns ErrServerClosed on close
		nodes = append(nodes, inNode{px: px, addr: addr, srv: srv})
	}
	return nodes, entry, d, nil
}

// tierDelta sums one tier's fetched bytes over nodes, after minus before.
func tierDelta(before, after []proxy.Stats, tier string) float64 {
	var sum int64
	for i := range after {
		sum += after[i].TierBytes[tier] - before[i].TierBytes[tier]
	}
	return float64(sum)
}

// tracedLive drives the named live workload's in-process topology with
// the two-connection client for a quarter of the untraced time and
// derives the span and counter metrics.
func (l *ladder) tracedLive(o *outcome, rec *recorder, name string) error {
	nodes, entry, d, err := l.tracedTopology(rec, name)
	if err != nil {
		return err
	}
	defer func() {
		for _, n := range nodes {
			n.srv.Close()
		}
	}()
	ks := make([]*conn, conns)
	for g := range ks {
		ks[g] = newConn(nodes[g%entry].addr, "")
		defer ks[g].close()
	}

	// Every client request gets a number and a span of its own.
	var mu sync.Mutex
	var reqSeq int64
	clientSpans := map[int64]*span{}
	var ttfbs []float64
	fetch := func(measured bool) func(g, id int) error {
		return func(g, id int) error {
			mu.Lock()
			reqSeq++
			n := reqSeq
			mu.Unlock()
			ks[g].req = n
			s := &span{Name: "client.request", Req: n, object: id, Start: rec.now()}
			ttfb, err := ks[g].fetch(id, d.content[id], !measured)
			s.End = rec.now()
			rec.add(s)
			if measured {
				mu.Lock()
				clientSpans[n] = s
				ttfbs = append(ttfbs, float64(ttfb.Nanoseconds())/1e3)
				mu.Unlock()
			}
			return err
		}
	}

	// Warm like the untraced run: every object, hottest last, verified;
	// again until the origin is left alone where everything fits.
	descending := make([]int, len(d.content))
	for i := range descending {
		descending[i] = len(d.content) - 1 - i
	}
	allHits := name == "hit_small" || name == "hit_large"
	for pass := 0; ; pass++ {
		before := d.org.bytes.Load()
		var werr error
		var wg sync.WaitGroup
		for g := 0; g < conns; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(descending); i += conns {
					if err := fetch(false)(g, descending[i]); err != nil {
						mu.Lock()
						werr = err
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		if werr != nil {
			return werr
		}
		for _, n := range nodes {
			n.px.Quiesce()
		}
		if !allHits || d.org.bytes.Load() == before {
			break
		}
		if pass == maxWarmPasses {
			return fmt.Errorf("traced %s: cache still fetching after %d passes", name, pass)
		}
	}

	snapshot := func() []proxy.Stats {
		out := make([]proxy.Stats, len(nodes))
		for i, n := range nodes {
			out[i] = n.px.Snapshot()
		}
		return out
	}
	before := snapshot()
	firstMeasured := reqSeq + 1
	mbps, err := closedLoop(time.Duration(l.e.seconds/4*float64(time.Second)), d.trace, d.content, fetch(true))
	if err != nil {
		return err
	}
	for _, n := range nodes {
		n.px.Quiesce()
	}
	after := snapshot()
	requests := float64(len(clientSpans))
	if requests == 0 {
		return fmt.Errorf("traced %s: no request completed", name)
	}
	o.attempted += int64(requests)

	// Spans: who caused what, then per-request self and socket time.
	link(rec.spans)
	children := map[int64][]*span{}
	var waits, self, socket []float64
	var entryFetches, allFetches, fallbacks float64
	isEntry := map[string]bool{}
	for _, n := range nodes[:entry] {
		isEntry[n.addr] = true
	}
	for _, s := range rec.spans {
		if s.Req < firstMeasured || s.Name != "proxy.upstream" {
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
		waits = append(waits, float64(s.wait)/1e3)
		allFetches++
		if isEntry[s.node] {
			entryFetches++
			if entry > 1 && s.target == d.org.addr {
				fallbacks++ // an edge goes to the origin only when peer and parent failed
			}
		}
	}
	for _, s := range rec.spans {
		if s.Name != "proxy.serve" || s.Parent != 0 || s.Req < firstMeasured {
			continue
		}
		self = append(self, float64(selfTime(s, children[s.ID]))/1e3)
		if c := clientSpans[s.Req]; c != nil {
			socket = append(socket, float64((c.End-c.Start)-(s.End-s.Start))/1e3)
		}
	}
	p50 := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		sort.Float64s(v)
		return percentile(v, 50)
	}
	o.values["proxy.self_us_p50"] = p50(self)
	o.values["proxyd.socket_us_p50"] = p50(socket)
	o.values["proxy.upstream_wait_us_p50"] = p50(waits)
	o.values["proxy.upstream_fetches_per_req"] = entryFetches / requests
	sort.Float64s(ttfbs)
	o.values["client.ttfb_p50_us"] = percentile(ttfbs, 50)
	o.values["client.ttfb_p99_us"] = percentile(ttfbs, 99)

	var nodeRequests, coalesced, hits float64
	for i := 0; i < entry; i++ {
		nodeRequests += float64(after[i].Requests - before[i].Requests)
		coalesced += float64(after[i].CoalescedRequests - before[i].CoalescedRequests)
		hits += float64(after[i].PrefixHits - before[i].PrefixHits)
	}
	o.values["proxy.coalesced_frac"] = coalesced / nodeRequests
	o.values["proxy.prefix_hit_frac"] = hits / nodeRequests
	if entry > 1 {
		// Shares of the delivered bytes that crossed each kind of link.
		var delivered float64
		for _, c := range clientSpans {
			delivered += float64(len(d.content[c.object]))
		}
		o.values["cluster.peer_byte_frac"] = tierDelta(before[:entry], after[:entry], "peer") / delivered
		o.values["cluster.parent_byte_frac"] = tierDelta(before[:entry], after[:entry], "parent") / delivered
		o.values["cluster.origin_byte_frac"] = tierDelta(before, after, "origin") / delivered
		o.values["cluster.hops_per_req"] = allFetches / requests
		o.values["cluster.fallbacks"] = fallbacks
	}
	fmt.Printf("   traced %s: %.0f requests at %.1f MB/s in-process, %.0f upstream fetches\n", name, requests, mbps, allFetches)
	return nil
}
