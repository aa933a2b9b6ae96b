package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// perLayer lists the metrics of the traced pass (-trace 1). Layers are
// the repository's packages; bench.* and client.* are the harness's own.
// A metric of a layer the traced workload does not pass through reads 0.
var perLayer = []metricDef{
	{name: "core.access_hit_ns", unit: "ns"},
	{name: "core.access_allocs", unit: "count"},
	{name: "core.access_evict_ns", unit: "ns"},
	{name: "core.victims_per_evict", unit: "count"},
	{name: "proxy.store_view_ns", unit: "ns"},
	{name: "proxy.store_writeto_mb_s", unit: "MB/s"},
	{name: "proxy.store_append_mb_s", unit: "MB/s"},
	{name: "proxy.store_truncate_ns", unit: "ns"},
	{name: "proxy.store_overhead_frac", unit: "ratio"},
	{name: "proxy.serve_hit_ns", unit: "ns"},
	{name: "proxy.serve_hit_allocs", unit: "count"},
	{name: "proxy.serve_hit_mb_s", unit: "MB/s"},
	{name: "proxy.serve_miss_mb_s", unit: "MB/s"},
	{name: "proxy.serve_miss_allocs", unit: "count"},
	{name: "proxy.upstream_fetches_per_req", unit: "count"},
	{name: "proxy.upstream_wait_us_p50", unit: "us"},
	{name: "proxy.coalesced_frac", unit: "ratio"},
	{name: "proxy.prefix_hit_frac", unit: "ratio"},
	{name: "proxy.self_us_p50", unit: "us"},
	{name: "proxyd.socket_us_p50", unit: "us"},
	{name: "proxyd.boot_ms", unit: "ms"},
	{name: "cluster.owner_ns", unit: "ns"},
	{name: "cluster.route_ns", unit: "ns"},
	{name: "cluster.peer_byte_frac", unit: "ratio"},
	{name: "cluster.parent_byte_frac", unit: "ratio"},
	{name: "cluster.origin_byte_frac", unit: "ratio"},
	{name: "cluster.hops_per_req", unit: "count"},
	{name: "cluster.fallbacks", unit: "count"},
	{name: "sim.run_req_per_s", unit: "1/s"},
	{name: "sim.run_allocs_per_req", unit: "count"},
	{name: "sim.hierarchy_1x1_req_per_s", unit: "1/s"},
	{name: "sim.hierarchy_2x2_req_per_s", unit: "1/s"},
	{name: "sim.parallel_speedup", unit: "ratio"},
	{name: "workload.generate_ms", unit: "ms"},
	{name: "experiments.figure5_s", unit: "s"},
	{name: "experiments.figure6_s", unit: "s"},
	{name: "experiments.figure7_s", unit: "s"},
	{name: "experiments.figure9_s", unit: "s"},
	{name: "experiments.refined-e_s", unit: "s"},
	{name: "experiments.refined-esigma_s", unit: "s"},
	{name: "experiments.hierarchy_s", unit: "s"},
	{name: "experiments.rows", unit: "count"},
	{name: "experiments.evaluations", unit: "count"},
	{name: "experiments.exchange_hits", unit: "count"},
	{name: "experiments.csv_rows_per_s", unit: "1/s"},
	{name: "experiments.journal_rows_per_s", unit: "1/s"},
	{name: "experiments.merge_rows_per_s", unit: "1/s"},
	{name: "collect.push_rows_per_s", unit: "1/s"},
	{name: "collect.metric_wait_ms_p50", unit: "ms"},
	{name: "collect.shed", unit: "count"},
	{name: "collect.resyncs", unit: "count"},
	{name: "collect.write_tables_ms", unit: "ms"},
	{name: "load.fetch_mb_s", unit: "MB/s"},
	{name: "bench.client_mb_s", unit: "MB/s"},
	{name: "bench.origin_mb_s", unit: "MB/s"},
	{name: "bench.trace_overhead_frac", unit: "ratio"},
	{name: "client.ttfb_p50_us", unit: "us"},
	{name: "client.ttfb_p99_us", unit: "us"},
}

// span is one timed call across a layer boundary. Spans of one client
// request share Req; Parent is the span that caused this one, 0 for the
// client's own.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Not written out: what the parenting pass matches on.
	node, target string // which node recorded it; where an upstream span went
	object       int
	wait         int64 // upstream spans: ns until response headers
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s *span) {
	r.mu.Lock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reqHeader carries the client's request number to the entry node.
const reqHeader = "X-Bench-Req"

// tracedHandler records one span per request a node serves. With a nil
// recorder it serves untraced, which is how the tracing overhead is
// measured.
func tracedHandler(rec *recorder, node string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := &span{Name: "proxy.serve", node: node, object: objectOf(req.URL.Path), Start: rec.now()}
		if v := req.Header.Get(reqHeader); v != "" {
			s.Req, _ = strconv.ParseInt(v, 10, 64) // 0 (unknown) if malformed; only the client sets it
		}
		h.ServeHTTP(w, req)
		s.End = rec.now()
		rec.add(s)
	})
}

// tracedTransport records one span per upstream fetch a node makes:
// from the request to the last body byte, with the wait for response
// headers kept apart.
type tracedTransport struct {
	rec  *recorder
	node string
	next http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := &span{Name: "proxy.upstream", node: t.node, target: req.URL.Host, object: objectOf(req.URL.Path), Start: t.rec.now()}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = t.rec.now()
		s.wait = s.End - s.Start
		t.rec.add(s)
		return nil, err
	}
	s.wait = t.rec.now() - s.Start
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: func() {
		s.End = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *tracedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// link gives every span its parent and request. A node's upstream fetch
// belongs to the serve span of the same object on that node that was
// open when the fetch began (the earliest, for coalesced requests); a
// serve span without a request number was caused by the upstream fetch
// of the same object aimed at its node that was open when it began.
func link(spans []*span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	byObject := map[int][]*span{} // serve and upstream spans only, in start order
	for _, s := range spans {
		if s.Name == "proxy.serve" || s.Name == "proxy.upstream" {
			byObject[s.object] = append(byObject[s.object], s)
		}
	}
	for _, group := range byObject {
		// A parent's own request may be known only after its parent's
		// is, one hop per round.
		for changed := true; changed; {
			changed = false
			for _, s := range group {
				if s.Parent != 0 || (s.Name == "proxy.serve" && s.Req != 0) {
					continue
				}
				for _, p := range group {
					if p.Name == s.Name || p.Req == 0 || p.Start > s.Start || s.Start > p.End {
						continue
					}
					if (s.Name == "proxy.upstream" && p.node == s.node) || (s.Name == "proxy.serve" && p.target == s.node) {
						s.Parent, s.Req, changed = p.ID, p.Req, true
						break
					}
				}
			}
		}
	}
}

// selfTime is the span's duration minus the part of it its children cover.
func selfTime(s *span, children []*span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	covered, edge := int64(0), s.Start
	for _, c := range children {
		from, to := max(c.Start, edge), min(c.End, s.End)
		if to > from {
			covered += to - from
			edge = to
		}
	}
	return s.End - s.Start - covered
}

func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// listen serves h on a fresh loopback port until the returned server
// is closed.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
	return srv, ln.Addr().String(), nil
}

// runTraced is the -trace 1 pass: the ladder of timed loops around each
// layer's exported calls, then the named workload's topology assembled
// in this process from the public constructors with a span recorder on
// every seam. It measures for about a third of the untraced time.
func runTraced(e *env, name, traceOut string) (*outcome, error) {
	if _, ok := workloadByName(name); !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	o := newOutcome()
	for _, d := range perLayer {
		o.values[d.name] = 0
	}
	rec := newRecorder()
	l, err := newLadder(e)
	if err != nil {
		return nil, err
	}
	defer l.close()
	steps := []func(*outcome) error{l.core, l.store, l.serve, l.cluster, l.sim, l.sinks, l.collector, l.harness, l.boot, l.overhead}
	for _, step := range steps {
		if err := step(o); err != nil {
			return nil, err
		}
	}
	switch name {
	case "sweep_single":
		err = tracedSweep(e, o, rec, false)
	case "sweep_sharded":
		err = tracedSweep(e, o, rec, true)
	default:
		err = l.tracedLive(o, rec, name)
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("   traced %s: %d spans\n", name, len(rec.spans))
	if traceOut != "" {
		if err := writeSpans(traceOut, rec.spans); err != nil {
			return nil, err
		}
	}
	return o, nil
}
