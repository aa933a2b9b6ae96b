package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/httpd/httpdtest"
	"streamcache/internal/proxy"
)

// TestClusterConfig parameterizes an in-process cluster built with
// NewTestCluster.
type TestClusterConfig struct {
	// Edges is the number of edge nodes (required, > 0).
	Edges int
	// WithParent inserts a parent-tier proxy between the edges and the
	// origin.
	WithParent bool
	// Catalog is the shared object directory (required).
	Catalog *proxy.Catalog
	// EdgeCacheBytes is the total edge-tier capacity, split evenly
	// across edges via core.SplitCapacity.
	EdgeCacheBytes int64
	// ParentCacheBytes is the parent proxy's capacity (ignored without
	// WithParent).
	ParentCacheBytes int64
	// NewPolicy builds each cache's eviction policy (required).
	NewPolicy func() core.Policy
	// Shards is the per-node shard count (0 = 1).
	Shards int
	// OriginHandler overrides the origin (e.g. a gated or flaky origin
	// for fault tests); nil serves the catalog via proxy.NewOrigin at
	// OriginRate bytes/s.
	OriginHandler http.Handler
	// OriginRate limits the default origin's path (0 = unlimited).
	OriginRate float64
	// PeerHeaderTimeout bounds peer/parent header latency before a
	// fetch demotes to the origin.
	PeerHeaderTimeout time.Duration
	// Now injects the nodes' clock (policy aging, throughput timing);
	// nil means time.Now. A frozen clock makes policy state
	// wall-clock-independent across runs.
	Now func() time.Time
}

// TestCluster is a deterministic in-process cluster: one counting
// origin, an optional parent proxy, and N edge proxies wired through
// consistent-hash routing — every proxy behind the wire loop proxyd
// serves through (httpd), the origin on httptest, so the peer fetch
// path is exercised end to end. Peer and parent handlers
// sit behind swappable delegates for scripted failure injection.
type TestCluster struct {
	cfg TestClusterConfig

	originSrv  *httptest.Server
	originReqs atomic.Int64
	originByts atomic.Int64

	parent    *proxy.Proxy
	parentSrv *httpdtest.Server
	parentSwp *swapHandler

	edges    []*proxy.Proxy
	edgeSrvs []*httpdtest.Server
	edgeSwps []*swapHandler
}

// swapHandler delegates to an atomically replaceable handler: the
// cluster can stand up listeners (whose URLs the proxies need at
// construction) before the proxies behind them exist, and tests can
// script failures by swapping a node's handler mid-run.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, req)
		return
	}
	http.Error(w, "cluster: node not wired yet", http.StatusServiceUnavailable)
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

// countingWriter tallies origin response bytes (headers excluded).
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// NewTestCluster builds and wires the cluster. Callers own Close.
func NewTestCluster(cfg TestClusterConfig) (*TestCluster, error) {
	if cfg.Edges <= 0 {
		return nil, fmt.Errorf("%w: %d edges", ErrBadCluster, cfg.Edges)
	}
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("%w: nil catalog", ErrBadCluster)
	}
	tc := &TestCluster{cfg: cfg}

	originInner := cfg.OriginHandler
	if originInner == nil {
		og, err := proxy.NewOrigin(cfg.Catalog, cfg.OriginRate)
		if err != nil {
			return nil, err
		}
		originInner = og
	}
	tc.originSrv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tc.originReqs.Add(1)
		originInner.ServeHTTP(countingWriter{w, &tc.originByts}, req)
	}))

	// Listeners first (the proxies need each other's URLs), proxies
	// second, handlers wired last.
	if cfg.WithParent {
		tc.parentSwp = &swapHandler{}
		tc.parentSrv = httpdtest.NewServer(tc.parentSwp)
	}
	tc.edgeSwps = make([]*swapHandler, cfg.Edges)
	tc.edgeSrvs = make([]*httpdtest.Server, cfg.Edges)
	peerURLs := make([]string, cfg.Edges)
	for i := range tc.edgeSwps {
		tc.edgeSwps[i] = &swapHandler{}
		tc.edgeSrvs[i] = httpdtest.NewServer(tc.edgeSwps[i])
		peerURLs[i] = tc.edgeSrvs[i].URL
	}

	if cfg.WithParent {
		p, err := proxy.New(proxy.Config{
			Catalog:    cfg.Catalog,
			OriginURL:  tc.originSrv.URL,
			Shards:     cfg.Shards,
			CacheBytes: cfg.ParentCacheBytes,
			NewPolicy:  cfg.NewPolicy,
			Now:        cfg.Now,
			Tier:       "parent",
		})
		if err != nil {
			tc.Close()
			return nil, err
		}
		tc.parent = p
		tc.parentSwp.set(p)
	}

	edgeCaps := core.SplitCapacity(cfg.EdgeCacheBytes, cfg.Edges)
	if edgeCaps == nil {
		tc.Close()
		return nil, fmt.Errorf("%w: edge cache bytes %d", ErrBadCluster, cfg.EdgeCacheBytes)
	}
	tc.edges = make([]*proxy.Proxy, cfg.Edges)
	for i := range tc.edges {
		node := NodeConfig{
			Self:              i,
			Origin:            tc.originSrv.URL,
			PeerHeaderTimeout: cfg.PeerHeaderTimeout,
		}
		if cfg.Edges > 1 {
			node.Peers = peerURLs
		}
		if cfg.WithParent {
			node.Parent = tc.parentSrv.URL
		}
		pcfg := proxy.Config{
			Catalog:    cfg.Catalog,
			OriginURL:  tc.originSrv.URL,
			Shards:     cfg.Shards,
			CacheBytes: edgeCaps[i],
			NewPolicy:  cfg.NewPolicy,
			Now:        cfg.Now,
			Tier:       "edge",
		}
		if len(node.Peers) > 0 || node.Parent != "" {
			ups, route, err := node.Router()
			if err != nil {
				tc.Close()
				return nil, err
			}
			pcfg.Upstreams = ups
			pcfg.Router = route
		}
		p, err := proxy.New(pcfg)
		if err != nil {
			tc.Close()
			return nil, err
		}
		tc.edges[i] = p
		tc.edgeSwps[i].set(p)
	}
	return tc, nil
}

// Close shuts every listener down. It does not drain: call Quiesce
// first when the test needs post-run invariants.
func (tc *TestCluster) Close() {
	for _, s := range tc.edgeSrvs {
		if s != nil {
			s.Close()
		}
	}
	if tc.parentSrv != nil {
		tc.parentSrv.Close()
	}
	if tc.originSrv != nil {
		tc.originSrv.Close()
	}
}

// Quiesce waits for every node's in-flight requests and relays,
// draining edges before the parent (an edge relay can hold a parent
// request open).
func (tc *TestCluster) Quiesce() {
	for _, e := range tc.edges {
		e.Quiesce()
	}
	if tc.parent != nil {
		tc.parent.Quiesce()
	}
}

// Edges returns the number of edge nodes.
func (tc *TestCluster) Edges() int { return len(tc.edges) }

// Edge returns edge i's proxy (for stats and invariant hooks).
func (tc *TestCluster) Edge(i int) *proxy.Proxy { return tc.edges[i] }

// EdgeURL returns edge i's base URL.
func (tc *TestCluster) EdgeURL(i int) string { return tc.edgeSrvs[i].URL }

// Parent returns the parent proxy (nil without WithParent).
func (tc *TestCluster) Parent() *proxy.Proxy { return tc.parent }

// ParentURL returns the parent's base URL ("" without WithParent).
func (tc *TestCluster) ParentURL() string {
	if tc.parentSrv == nil {
		return ""
	}
	return tc.parentSrv.URL
}

// OriginURL returns the counting origin's base URL.
func (tc *TestCluster) OriginURL() string { return tc.originSrv.URL }

// OriginRequests returns how many requests reached the origin.
func (tc *TestCluster) OriginRequests() int64 { return tc.originReqs.Load() }

// OriginBytes returns how many body bytes the origin served — the
// numerator of the cluster-wide traffic reduction ratio.
func (tc *TestCluster) OriginBytes() int64 { return tc.originByts.Load() }

// ReplaceParentHandler swaps the parent listener's handler — e.g. for
// a handler that aborts mid-stream. RestoreParent undoes it.
func (tc *TestCluster) ReplaceParentHandler(h http.Handler) { tc.parentSwp.set(h) }

// RestoreParent re-wires the real parent proxy behind its listener.
func (tc *TestCluster) RestoreParent() { tc.parentSwp.set(tc.parent) }

// ReplaceEdgeHandler swaps edge i's listener handler. RestoreEdge
// undoes it.
func (tc *TestCluster) ReplaceEdgeHandler(i int, h http.Handler) { tc.edgeSwps[i].set(h) }

// RestoreEdge re-wires edge i's real proxy behind its listener.
func (tc *TestCluster) RestoreEdge(i int) { tc.edgeSwps[i].set(tc.edges[i]) }

// KillParent closes the parent's listener outright: subsequent peer
// fetches see a connection error (the crashed-node case, as opposed to
// the hanging-node case ReplaceParentHandler scripts).
func (tc *TestCluster) KillParent() { tc.parentSrv.Kill() }

// KillEdge closes edge i's listener outright.
func (tc *TestCluster) KillEdge(i int) {
	tc.edgeSrvs[i].Kill()
}

// FetchVerified downloads object id from edge i and checks the digest
// against the catalog content — the end-to-end integrity probe.
func (tc *TestCluster) FetchVerified(i, id int) (*proxy.FetchResult, error) {
	meta, ok := tc.cfg.Catalog.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: unknown object %d", ErrBadCluster, id)
	}
	res, err := proxy.Fetch(fmt.Sprintf("%s/objects/%d", tc.EdgeURL(i), id))
	if err != nil {
		return nil, err
	}
	if res.Bytes != meta.Size {
		return nil, fmt.Errorf("cluster: object %d from edge %d: got %d bytes, want %d", id, i, res.Bytes, meta.Size)
	}
	if want := proxy.ContentSHA256(id, meta.Size); res.SHA256 != want {
		return nil, fmt.Errorf("cluster: object %d from edge %d: digest mismatch", id, i)
	}
	return res, nil
}
