package proxy

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/par"
)

// ErrBadProxy reports an invalid proxy construction.
var ErrBadProxy = errors.New("proxy: invalid proxy")

// Prerendered header values: assigning a shared []string into the
// response header map is the only allocation-free way to set a header,
// and these values never vary.
var (
	contentTypeMPEG = []string{"video/mpeg"}
	missHeader      = []string{"MISS"}
)

// Proxy is the accelerating cache of Figure 1. For each client request
// it serves the cached prefix immediately (the fast cache-client path)
// and concurrently relays the remainder from the origin over the
// constrained path, growing or shrinking its cached prefix as the
// policy dictates. Origin throughput is observed passively
// (Section 2.7) to feed the policy's bandwidth estimate.
//
// Concurrency model: objects are partitioned across shards by ID hash.
// Each shard owns an independent core.Cache over its slice of the byte
// budget, a PrefixStore, and a per-origin estimator table, all guarded
// by the shard's lock — requests for objects on different shards never
// contend. Global counters are atomics, and concurrent misses for the
// same object coalesce onto one origin transfer (see relay), so a
// thundering herd costs a single constrained-path fetch.
type Proxy struct {
	catalog   *Catalog
	originURL string
	client    *http.Client
	now       func() time.Time
	start     time.Time
	tier      string

	// upstreams lists every distinct upstream base URL misses can be
	// fetched over: the default origin first, then the catalog's origins
	// sorted, then configured cluster upstreams (peers, parent) in
	// declaration order; upstreamIndex inverts it. The set is fixed at
	// construction — per-upstream estimator state is dense slices
	// indexed like it, never a growing map.
	upstreams     []upstream
	upstreamIndex map[string]int

	// router maps an object to the upstream its misses should be
	// fetched over (nil: always the object's own origin).
	router func(Meta) Route

	shards   []*shard
	stats    counters
	inflight sync.WaitGroup
}

var _ http.Handler = (*Proxy)(nil)

// upstream is one slot of the fixed upstream table: where it is, the
// cluster tier its fetched bytes are accounted under in /stats, and
// those bytes.
type upstream struct {
	url, tier string
	bytes     atomic.Int64
}

// shard owns one partition of the object space. Its store has a lock
// of its own, so prefix reads and relay appends proceed without holding
// the shard lock.
type shard struct {
	store *PrefixStore
	state par.Guarded[shardState]
}

// shardState is what a shard's lock guards.
type shardState struct {
	cache    *core.Cache
	est      []bandwidth.EWMA // indexed by origin index; 0 until a path carries a transfer
	inflight map[int]*relay   // object ID -> in-flight origin transfer
}

// counters are the proxy-global atomic statistics; Snapshot folds them
// into the exported Stats.
type counters struct {
	requests     atomic.Int64
	prefixHits   atomic.Int64
	bytesFromHit atomic.Int64
	bytesFetched atomic.Int64
	coalesced    atomic.Int64
	demotions    atomic.Int64
	pacedWaits   atomic.Int64
	cancelled    atomic.Int64
	clientAborts atomic.Int64
	relayWrites  atomic.Int64
}

// Upstream names one non-origin fetch target (a peer or parent proxy
// in a cluster) the Router may direct misses to. Each upstream gets its
// own passive bandwidth estimator, and its fetched bytes are accounted
// under its Tier label in Stats.TierBytes.
type Upstream struct {
	// URL is the upstream's base URL (e.g. "http://peer-2:8080").
	URL string
	// Tier labels the upstream for per-tier accounting: "peer",
	// "parent", ... Empty means "origin".
	Tier string
}

// Route is a Router's decision for one object: where its misses are
// fetched from, and what to do when that upstream fails.
type Route struct {
	// URL is the primary upstream base URL; empty means the object's
	// own origin. It must be the default origin, a catalog origin, or a
	// configured Upstream — unknown URLs fall back to the object's
	// origin.
	URL string
	// Fallback is tried (once, with no header timeout) when the primary
	// fails before delivering any byte — connection refused, header
	// timeout, bad status. Empty means no fallback.
	Fallback string
	// HeaderTimeout bounds how long the primary may take to produce
	// response headers before the fetch is abandoned (and the Fallback
	// tried). Zero means no bound. It never cuts an in-progress body.
	HeaderTimeout time.Duration
}

// Stats counts proxy activity; exposed at GET /stats.
type Stats struct {
	Requests     int64 `json:"requests"`
	PrefixHits   int64 `json:"prefixHits"`
	BytesFromHit int64 `json:"bytesFromCache"`
	BytesFetched int64 `json:"bytesFromOrigin"`
	// CoalescedRequests counts requests that attached to another
	// request's in-flight origin transfer instead of opening their own —
	// the thundering-herd savings of the relay singleflight.
	CoalescedRequests int64 `json:"coalescedRequests"`
	// RelayDemotions counts readers the relay ring lapped (they trailed
	// the fastest reader by more than the ring holds) and that finished
	// over a private upstream fetch; RelayPacedWaits counts the times a
	// fetch stopped reading its upstream until its lead reader caught
	// up; RelayCancelled counts fetches aborted because their last
	// reader left. Tune relayRingSegments against the first two.
	RelayDemotions  int64 `json:"relayDemotions"`
	RelayPacedWaits int64 `json:"relayPacedWaits"`
	RelayCancelled  int64 `json:"relayCancelled"`
	// ClientAborts counts object responses the client ended: a write to
	// it failed, or its request context was cancelled mid-relay.
	ClientAborts int64 `json:"clientAborts"`
	// RelayWrites counts the sends that carried relay bytes to clients:
	// one per step of a reader's loop through the wire loop's vectored
	// write, so BytesFetched over it is about the mean send size.
	RelayWrites int64 `json:"relayWrites"`
	// SegmentsAllocated and SegmentsRecycled count the segments made
	// afresh and those taken from the pool, over the whole process (the
	// pool is shared by every Proxy in it).
	SegmentsAllocated int64 `json:"segmentsAllocated"`
	SegmentsRecycled  int64 `json:"segmentsRecycled"`
	UsedBytes         int64 `json:"usedBytes"`
	Objects           int   `json:"objects"`
	Shards            int   `json:"shards"`
	// EstimatesBps maps each origin base URL to the current passive
	// bandwidth estimate of its path (bytes/s), averaged over the shards
	// that have observed a completed transfer on it.
	EstimatesBps map[string]int64 `json:"estimatesBps"`
	// DefaultOrigin is the base URL misses without an explicit
	// Meta.Origin are fetched from; it anchors EstimateBps("").
	DefaultOrigin string `json:"defaultOrigin"`
	// Tier is this node's own label in its cluster ("edge", "parent");
	// empty for a standalone proxy.
	Tier string `json:"tier,omitempty"`
	// TierBytes splits BytesFetched by the tier of the upstream the
	// bytes came over: "origin" plus every configured Upstream tier.
	// Together with BytesFromCache (the edge-served share) it yields
	// the per-tier hit ratios the hierarchy experiments report.
	TierBytes map[string]int64 `json:"tierBytes"`
}

// EstimateBps returns the path estimate for the given origin. An empty
// origin asks for "the" path estimate, which is resolved
// deterministically: the default origin's estimate if one exists, else
// the estimate of the first origin in sorted key order. Unknown
// non-empty origins (and an empty estimate map) return 0.
func (s Stats) EstimateBps(origin string) int64 {
	if v, ok := s.EstimatesBps[origin]; ok {
		return v
	}
	if origin != "" {
		return 0
	}
	if v, ok := s.EstimatesBps[s.DefaultOrigin]; ok {
		return v
	}
	keys := make([]string, 0, len(s.EstimatesBps))
	for k := range s.EstimatesBps {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return 0
	}
	sort.Strings(keys)
	return s.EstimatesBps[keys[0]]
}

// Config parameterizes a sharded proxy built with New.
type Config struct {
	// Catalog is the shared object directory (required).
	Catalog *Catalog
	// OriginURL is the default origin base URL (required).
	OriginURL string
	// Shards partitions the object space; 0 means 1.
	Shards int
	// CacheBytes is the total capacity, split evenly across shards via
	// core.SplitCapacity.
	CacheBytes int64
	// NewPolicy gives each shard cache its policy (required).
	NewPolicy func() core.Policy
	// Client performs origin fetches; nil means a default http.Client.
	Client *http.Client
	// Upstreams names the cluster fetch targets (peers, parent) Router
	// may route misses to, beyond the catalog's origins.
	Upstreams []Upstream
	// Router picks the upstream each object's misses are fetched over;
	// nil routes every miss to the object's own origin.
	Router func(Meta) Route
	// Now supplies the proxy's clock (policy aging, passive throughput
	// timing); nil means time.Now. Injectable for deterministic
	// multi-node tests.
	Now func() time.Time
	// Tier labels this node in its cluster; surfaced in Stats.
	Tier string
}

// New builds a sharded proxy from cfg.
func New(cfg Config) (*Proxy, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: shards=%d, want >= 0", ErrBadProxy, cfg.Shards)
	}
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if cfg.NewPolicy == nil {
		return nil, fmt.Errorf("%w: nil NewPolicy", ErrBadProxy)
	}
	caps := core.SplitCapacity(cfg.CacheBytes, n)
	if caps == nil {
		return nil, fmt.Errorf("%w: CacheBytes=%d", ErrBadProxy, cfg.CacheBytes)
	}
	caches := make([]*core.Cache, n)
	for i := range caches {
		policy := cfg.NewPolicy()
		if policy == nil {
			return nil, fmt.Errorf("%w: NewPolicy returned nil", ErrBadProxy)
		}
		c, err := core.New(caps[i], policy)
		if err != nil {
			return nil, err
		}
		caches[i] = c
	}
	catalog, originURL := cfg.Catalog, cfg.OriginURL
	if catalog == nil {
		return nil, fmt.Errorf("%w: nil catalog", ErrBadProxy)
	}
	if originURL == "" {
		return nil, fmt.Errorf("%w: empty origin URL", ErrBadProxy)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}

	p := &Proxy{
		catalog:       catalog,
		originURL:     originURL,
		client:        client,
		now:           now,
		start:         now(),
		tier:          cfg.Tier,
		upstreamIndex: map[string]int{},
		router:        cfg.Router,
		shards:        make([]*shard, len(caches)),
	}
	// The upstream table is fixed at construction: the default origin,
	// every origin named by the (immutable) catalog, and every
	// configured cluster upstream. It can never grow at runtime, so
	// per-upstream state is bounded and lock-free to index.
	add := func(url, tier string) {
		if _, dup := p.upstreamIndex[url]; dup {
			return // already an origin (or listed twice): first tier wins
		}
		p.upstreamIndex[url] = len(p.upstreams)
		p.upstreams = append(p.upstreams, upstream{url: url, tier: tier})
	}
	add(originURL, "origin")
	for _, o := range catalog.Origins() {
		add(o, "origin")
	}
	for _, u := range cfg.Upstreams {
		if u.URL == "" {
			return nil, fmt.Errorf("%w: upstream with empty URL", ErrBadProxy)
		}
		add(u.URL, cmp.Or(u.Tier, "origin"))
	}
	fresh, err := bandwidth.NewEWMA(0.3)
	if err != nil {
		return nil, err
	}
	for i, c := range caches {
		est := slices.Repeat([]bandwidth.EWMA{*fresh}, len(p.upstreams))
		sh := &shard{store: NewPrefixStore()}
		sh.state.With(func(st *shardState) {
			*st = shardState{cache: c, est: est, inflight: make(map[int]*relay)}
		})
		p.shards[i] = sh
	}
	return p, nil
}

// Shards returns the configured shard count.
func (p *Proxy) Shards() int { return len(p.shards) }

// shardFor maps an object ID to its owning shard. IDs are dense and
// popularity-ordered (hot objects have low IDs), so a Fibonacci hash
// spreads neighbors across shards instead of clustering the hot set.
func (p *Proxy) shardFor(id int) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return p.shards[h%uint64(len(p.shards))]
}

// originFor returns the base URL of the origin storing meta.
func (p *Proxy) originFor(meta Meta) string {
	if meta.Origin != "" {
		return meta.Origin
	}
	return p.originURL
}

// resolvedRoute is a Router decision resolved against the fixed
// upstream table: URLs paired with their estimator indices, so the
// fetch path never consults the map again. fbIdx is -1 when there is
// no fallback.
type resolvedRoute struct {
	url           string
	idx           int
	fbURL         string
	fbIdx         int
	headerTimeout time.Duration
}

// routeFor resolves where meta's misses are fetched from. With no
// router (or a router answer naming an unknown upstream) that is the
// object's own origin; otherwise the router's primary, with its
// fallback resolved alongside. The primary's estimator index is what
// the cache policy prices — per-tier utility reflects the
// actually-constrained hop.
func (p *Proxy) routeFor(meta Meta) resolvedRoute {
	origin := p.originFor(meta)
	rt := resolvedRoute{url: origin, idx: p.upstreamIndex[origin], fbIdx: -1}
	if p.router == nil {
		return rt
	}
	r := p.router(meta)
	if r.URL == "" || r.URL == rt.url {
		return rt
	}
	idx, ok := p.upstreamIndex[r.URL]
	if !ok {
		return rt // unknown upstream: keep the object's own origin
	}
	rt.url, rt.idx = r.URL, idx
	rt.headerTimeout = r.HeaderTimeout
	if r.Fallback != "" && r.Fallback != r.URL {
		if fbIdx, ok := p.upstreamIndex[r.Fallback]; ok {
			rt.fbURL, rt.fbIdx = r.Fallback, fbIdx
		}
	}
	return rt
}

// addTierBytes accounts n fetched bytes to upstream idx; Snapshot sums
// them by tier.
func (p *Proxy) addTierBytes(idx int, n int64) {
	if n > 0 {
		p.upstreams[idx].bytes.Add(n)
	}
}

// ServeHTTP routes /objects/<id> to the joint-delivery path and /stats
// to the counters. Only GET and HEAD are served.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	if req.URL.Path == "/stats" {
		p.serveStats(w)
		return
	}
	id, ok := parseObjectPath(req.URL.Path)
	if !ok {
		http.NotFound(w, req)
		return
	}
	meta, ok := p.catalog.Get(id)
	if !ok {
		http.NotFound(w, req)
		return
	}
	p.serveObject(w, req, meta)
}

func (p *Proxy) serveStats(w http.ResponseWriter) {
	stats := p.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(stats); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Quiesce blocks until every in-flight object request and origin
// transfer has finished, including post-relay cache reconciliation. Use
// it before shutdown or before inspecting cache state from outside the
// request path.
func (p *Proxy) Quiesce() { p.inflight.Wait() }

// serveObject implements joint delivery: cached prefix first, upstream
// remainder streamed behind it, with opportunistic prefix growth. It
// honors "Range: bytes=N-" requests (status 206) so one proxy can act
// as another's upstream — a peer resuming a transfer past its own
// cached prefix asks for exactly the missing suffix. A HEAD request is
// answered with the headers the same GET would get now, and touches
// neither the cache policy nor the upstream.
func (p *Proxy) serveObject(w http.ResponseWriter, req *http.Request, meta Meta) {
	p.inflight.Add(1)
	defer p.inflight.Done()

	reqStart, rerr := parseRangeStart(req.Header.Get("Range"), meta.Size)
	if rerr != nil {
		rangeNotSatisfiable(w, rerr, meta.Size)
		return
	}

	obj := core.Object{
		ID:       meta.ID,
		Size:     meta.Size,
		Duration: meta.Duration,
		Rate:     meta.Rate,
		Value:    meta.Value,
	}

	rt := p.routeFor(meta)
	sh := p.shardFor(meta.ID)

	headOnly := req.Method == http.MethodHead
	var retainTarget int64
	if !headOnly {
		sh.state.With(func(st *shardState) {
			now := p.now().Sub(p.start).Seconds()
			res := st.cache.Access(obj, st.est[rt.idx].Estimate(), now)
			// Release byte storage for whatever the cache evicted.
			for _, v := range res.Victims {
				sh.store.Truncate(v.ID, st.cache.CachedBytes(v.ID))
			}
			if res.CachedAfter < sh.store.Len(meta.ID) {
				sh.store.Truncate(meta.ID, res.CachedAfter)
			}
			retainTarget = res.CachedAfter
		})
		p.stats.requests.Add(1)
	}

	// Zero-copy snapshot of the cached prefix: a view over immutable
	// segments, byte-stable without holding any lock while we write it
	// to the client.
	v := sh.store.View(meta.ID, meta.Size)
	// cacheServed is what the store can deliver past the requested
	// offset; a ranged request starting beyond the prefix serves nothing
	// from cache and relays the whole remainder.
	cacheServed := v.Len() - reqStart
	if cacheServed < 0 {
		cacheServed = 0
	}

	h := w.Header()
	if reqStart == 0 {
		if meta.sizeHeader != nil {
			h["Content-Length"] = meta.sizeHeader
		} else {
			// Meta built outside NewCatalog (tests): render on the spot.
			h["Content-Length"] = []string{strconv.FormatInt(meta.Size, 10)}
		}
	} else {
		// Ranged responses serve peer resumes, not the per-client steady
		// path: render headers on the spot.
		h["Content-Length"] = []string{strconv.FormatInt(meta.Size-reqStart, 10)}
		h["Content-Range"] = []string{fmt.Sprintf("bytes %d-%d/%d", reqStart, meta.Size-1, meta.Size)}
	}
	h["Content-Type"] = contentTypeMPEG
	if cacheServed > 0 {
		if reqStart == 0 && v.hdr != nil {
			h["X-Cache"] = v.hdr
		} else {
			// Ranged request, a prefix its relay is still growing, or one
			// that outgrew the object size and whose view was clamped —
			// not the steady hit path.
			h["X-Cache"] = []string{"HIT-PREFIX; bytes=" + strconv.FormatInt(cacheServed, 10)}
		}
	} else {
		h["X-Cache"] = missHeader
	}
	if reqStart > 0 {
		w.WriteHeader(http.StatusPartialContent)
	}

	// Phase 1: the cached prefix flows at cache-client speed, written
	// straight from the aliased segments — no per-request copy. The
	// view's references go back the moment its bytes are out: phase 2
	// lasts as long as the constrained path takes and must keep no
	// evicted segment from the pool.
	var n int64
	var err error
	if cacheServed > 0 && !headOnly {
		n, err = v.WriteRangeTo(w, reqStart)
	}
	v.release()
	if headOnly {
		return
	}
	if cacheServed > 0 {
		if err != nil {
			p.stats.clientAborts.Add(1)
			return
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		p.stats.prefixHits.Add(1)
		p.stats.bytesFromHit.Add(n)
	}

	// Phase 2: the remainder comes over the constrained upstream path —
	// through the object's in-flight relay when one covers our offset,
	// else through a new relay other requests can attach to.
	start := max(v.Len(), reqStart)
	if start >= meta.Size {
		return
	}
	var rl *relay
	sh.state.With(func(st *shardState) {
		rl = st.inflight[meta.ID]
		switch {
		case rl == nil:
			rl = p.startRelay(sh, meta, rt, start, retainTarget)
			st.inflight[meta.ID] = rl
		case rl.start <= start && rl.attach():
			rl.raiseRetain(retainTarget)
			p.stats.coalesced.Add(1)
		default:
			// The in-flight transfer began past our offset (the prefix
			// shrank since it started) or is already being torn down.
			rl = nil
		}
	})
	lapped := false
	if rl != nil {
		if start, lapped = p.streamFromRelay(req.Context(), w, rl, start); lapped {
			p.stats.demotions.Add(1)
		}
	}
	if rl == nil || lapped {
		// No shared transfer can serve this reader, or the ring lapped
		// it (it trails the fastest reader by more than the ring
		// holds): it finishes over a relay of its own from where it
		// left off — same pump, nothing retained, nobody else attached,
		// leaving the store and the herd to the shared fetch.
		p.streamFromRelay(req.Context(), w, p.startRelay(sh, meta, rt, start, 0), start)
	}
}

// startRelay starts the upstream transfer of meta's bytes from start
// on, retaining up to retain of them in the shard's store, and returns
// its relay with the caller attached.
func (p *Proxy) startRelay(sh *shard, meta Meta, rt resolvedRoute, start, retain int64) *relay {
	ctx, cancel := context.WithCancel(context.Background())
	rl := newRelay(start, meta.Size, retain, cancel)
	rl.attach() // a fresh relay never refuses
	p.inflight.Add(1)
	go p.runRelay(ctx, sh, meta, rt, rl)
	return rl
}

// streamFromRelay is the reader loop: it writes relay bytes from object
// offset off to the client, straight from the relay's segments — every
// step's batch in one vectored write when w takes one (the wire loop's
// response writer), else a Write per chunk — until the transfer ends or
// the client goes away (detected by write failure or the request
// context, whichever fires first — counted as a client abort), then
// detaches. It returns the next unserved offset and whether the ring
// lapped this reader — in which case the caller must finish the
// transfer over a private relay from that offset.
func (p *Proxy) streamFromRelay(ctx context.Context, w http.ResponseWriter, rl *relay, off int64) (int64, bool) {
	stop := context.AfterFunc(ctx, rl.wake)
	defer stop()
	fl, _ := w.(http.Flusher)
	bw, vectored := w.(buffersWriter)
	var b relayBatch
	var err error
	for {
		if err = rl.next(ctx, off, &b); b.n == 0 {
			if ctx.Err() != nil {
				p.stats.clientAborts.Add(1)
			}
			break
		}
		var n int64
		if vectored {
			n, err = bw.WriteBuffers(b.chunks[:b.n])
			p.stats.relayWrites.Add(1)
		} else {
			for _, chunk := range b.chunks[:b.n] {
				var m int
				m, err = w.Write(chunk)
				n += int64(m)
				p.stats.relayWrites.Add(1)
				if err != nil {
					break
				}
			}
		}
		off += n
		if err != nil {
			p.stats.clientAborts.Add(1)
			break // client went away; detach may cancel the fetch
		}
		if fl != nil {
			fl.Flush()
		}
	}
	if rl.detach(&b) {
		p.stats.cancelled.Add(1)
	}
	return off, err == errRelayLapped
}

// runRelay is the fetch goroutine behind one relay: it pulls the
// remainder from the routed upstream exactly once, publishes it to
// every attached client and the prefix store, then reconciles cache
// accounting with what was actually materialized. ctx is canceled by
// the last detaching client, aborting a transfer nobody reads anymore.
func (p *Proxy) runRelay(ctx context.Context, sh *shard, meta Meta, rt resolvedRoute, rl *relay) {
	defer p.inflight.Done()
	fetched, bps, usedIdx, err := p.fetchOrigin(ctx, sh, meta, rt, rl)
	rl.finish(err)
	p.stats.bytesFetched.Add(fetched)
	p.addTierBytes(usedIdx, fetched)

	sh.state.With(func(st *shardState) {
		// Passive measurement: throughput of this transfer on the path
		// that actually carried it (the fallback's, if the primary was
		// demoted).
		if bps > 0 {
			st.est[usedIdx].Observe(bps)
		}
		if st.inflight[meta.ID] != rl {
			return // a private relay retained nothing: nothing to reconcile
		}
		delete(st.inflight, meta.ID)
		// Reconcile accounting and materialization: an aborted transfer
		// can leave the cache granting bytes the store never received,
		// and an eviction racing the relay can leave store bytes the
		// cache no longer accounts for. Either way the store and the
		// cache agree once no transfer is in flight — and the store
		// renders the prefix's X-Cache header here, once per transfer,
		// where its length settles.
		if stored := sh.store.Len(meta.ID); stored < st.cache.CachedBytes(meta.ID) {
			st.cache.Truncate(meta.ID, stored)
		}
		sh.store.Truncate(meta.ID, st.cache.CachedBytes(meta.ID))
	})
}

// fetchOrigin streams object bytes [rl.start, meta.Size) from the
// routed upstream into the relay. It returns the bytes fetched, the
// throughput sample the transfer offers for its path in bytes/s, and
// the upstream index that actually carried it (the fallback's when the
// primary failed before its first byte). The sample is 0 when nothing
// arrived, and when the fetch ever waited for the relay's readers:
// while it is parked the kernel and transport buffers keep filling and
// the following reads return at memory speed, so neither the transfer's
// duration nor that duration less the waits measures the path.
func (p *Proxy) fetchOrigin(ctx context.Context, sh *shard, meta Meta, rt resolvedRoute, rl *relay) (int64, float64, int, error) {
	fetchStart := p.now()
	resp, release, usedIdx, err := p.openUpstream(ctx, meta, rt, rl.start)
	if err != nil {
		return 0, 0, usedIdx, err
	}
	defer release()
	defer resp.Body.Close()
	fetched, waits, err := pump(resp.Body, sh.store, meta.ID, rl)
	if err != nil {
		err = fmt.Errorf("proxy: upstream read: %w", err)
	}
	p.stats.pacedWaits.Add(waits)
	var bps float64
	if elapsed := p.now().Sub(fetchStart).Seconds(); waits == 0 && elapsed > 0 {
		bps = float64(fetched) / elapsed
	}
	return fetched, bps, usedIdx, err
}

// pump is the fetch loop: it reads body straight into rl's segments,
// store adopting those below the relay's (possibly still rising)
// retention limit, until the body ends, the object is complete or every
// reader has left. It returns the bytes fetched and how many times it
// waited for the relay's readers.
func pump(body io.Reader, store *PrefixStore, id int, rl *relay) (fetched, waits int64, err error) {
	offset := rl.start
	for err == nil {
		seg, limit, waited := rl.reserve()
		if waited {
			waits++
		}
		if seg == nil {
			break
		}
		var n int
		n, err = body.Read(seg.buf[offset-seg.off:])
		if n > 0 {
			// Materialize before publishing: a client that has consumed
			// every published byte is then guaranteed the store was
			// offered them too.
			end := offset + int64(n)
			if offset < limit {
				store.adopt(id, seg, end, limit)
			}
			rl.publish(n)
			offset = end
		}
	}
	if err == io.EOF {
		err = nil
	}
	return offset - rl.start, waits, err
}

// openUpstream opens the transfer for meta over rt's primary upstream,
// demoting to rt's fallback when the primary fails before delivering
// any byte — connection refused, header timeout, bad status. The
// demotion happens here, before the first byte reaches a relay or
// client, so a mid-stream upstream death still truncates cleanly (the
// next request recovers over the fallback path instead). It returns
// the response, a release func the caller must invoke once the body is
// consumed, and the upstream index that will carry the transfer.
func (p *Proxy) openUpstream(ctx context.Context, meta Meta, rt resolvedRoute, start int64) (*http.Response, func(), int, error) {
	resp, release, err := p.openOne(ctx, meta, rt.url, start, rt.headerTimeout)
	if err == nil {
		return resp, release, rt.idx, nil
	}
	if rt.fbIdx < 0 || ctx.Err() != nil {
		return nil, nil, rt.idx, err
	}
	resp, release, ferr := p.openOne(ctx, meta, rt.fbURL, start, 0)
	if ferr != nil {
		return nil, nil, rt.fbIdx, fmt.Errorf("proxy: primary upstream: %v; fallback: %w", err, ferr)
	}
	return resp, release, rt.fbIdx, nil
}

// openOne opens one upstream request, optionally bounding how long the
// upstream may take to produce response headers. The timeout never
// cuts an in-progress body: the timer is disarmed the moment headers
// arrive, and the returned release only frees the derived context.
func (p *Proxy) openOne(ctx context.Context, meta Meta, url string, start int64, timeout time.Duration) (*http.Response, func(), error) {
	if timeout <= 0 {
		resp, err := p.originRequest(ctx, meta, url, start)
		return resp, func() {}, err
	}
	hctx, cancel := context.WithCancel(ctx)
	timer := time.AfterFunc(timeout, cancel)
	resp, err := p.originRequest(hctx, meta, url, start)
	timer.Stop()
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// originRequest opens a ranged GET for meta's content from the given
// upstream starting at the given byte offset. A ranged request demands
// a 206: an upstream that ignores Range and replies 200 would deliver
// byte 0 at offset `start`, corrupting the shared relay and prefix
// store, so it is rejected here.
func (p *Proxy) originRequest(ctx context.Context, meta Meta, origin string, start int64) (*http.Response, error) {
	url := fmt.Sprintf("%s/objects/%d", origin, meta.ID)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("proxy: build origin request: %w", err)
	}
	if start > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", start))
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("proxy: origin fetch: %w", err)
	}
	want := http.StatusOK
	if start > 0 {
		want = http.StatusPartialContent
	}
	if resp.StatusCode != want {
		resp.Body.Close()
		return nil, fmt.Errorf("proxy: origin status %s for offset %d (want %d)", resp.Status, start, want)
	}
	return resp, nil
}

// StoredBytes returns the materialized prefix length of object id (a
// test and tooling hook; the owning shard is found by ID hash).
func (p *Proxy) StoredBytes(id int) int64 {
	return p.shardFor(id).store.Len(id)
}

// StoredTotal returns the total bytes materialized across all shard
// stores.
func (p *Proxy) StoredTotal() int64 {
	var total int64
	for _, sh := range p.shards {
		total += sh.store.TotalBytes()
	}
	return total
}

// AccountedBytes returns the cache-accounted prefix bytes of object id
// (a test hook: after Quiesce it must equal StoredBytes — the
// cluster-wide reconciliation invariant).
func (p *Proxy) AccountedBytes(id int) (n int64) {
	p.shardFor(id).state.Read(func(st *shardState) { n = st.cache.CachedBytes(id) })
	return n
}

// InflightRelays returns the number of in-flight upstream transfers
// across all shards (a test hook: zero after Quiesce, or a relay
// leaked).
func (p *Proxy) InflightRelays() (n int) {
	for _, sh := range p.shards {
		sh.state.Read(func(st *shardState) { n += len(st.inflight) })
	}
	return n
}

// Snapshot aggregates the current stats across shards. Shard snapshots
// are taken one shard at a time under that shard's own lock — no
// stop-the-world pause — so the result is a consistent-per-shard,
// slightly time-smeared view, which is what a /stats endpoint wants.
func (p *Proxy) Snapshot() Stats {
	s := Stats{
		Requests:          p.stats.requests.Load(),
		PrefixHits:        p.stats.prefixHits.Load(),
		BytesFromHit:      p.stats.bytesFromHit.Load(),
		BytesFetched:      p.stats.bytesFetched.Load(),
		CoalescedRequests: p.stats.coalesced.Load(),
		RelayDemotions:    p.stats.demotions.Load(),
		RelayPacedWaits:   p.stats.pacedWaits.Load(),
		RelayCancelled:    p.stats.cancelled.Load(),
		ClientAborts:      p.stats.clientAborts.Load(),
		RelayWrites:       p.stats.relayWrites.Load(),
		SegmentsAllocated: segmentsAllocated.Load(),
		SegmentsRecycled:  segmentsRecycled.Load(),
		Shards:            len(p.shards),
		DefaultOrigin:     p.originURL,
		Tier:              p.tier,
	}
	s.TierBytes = map[string]int64{}
	for i := range p.upstreams {
		s.TierBytes[p.upstreams[i].tier] += p.upstreams[i].bytes.Load()
	}
	// Dense accumulators indexed by upstream keep the aggregation to two
	// small allocations regardless of shard count.
	sums := make([]float64, len(p.upstreams))
	counts := make([]int, len(p.upstreams))
	for _, sh := range p.shards {
		sh.state.Read(func(st *shardState) {
			snap := st.cache.Snapshot()
			s.UsedBytes += snap.Used
			s.Objects += snap.Objects
			for i := range st.est {
				// An estimate is positive once the shard has measured a
				// transfer on the path, and 0 before.
				if e := st.est[i].Estimate(); e > 0 {
					sums[i] += e
					counts[i]++
				}
			}
		})
	}
	s.EstimatesBps = make(map[string]int64, len(p.upstreams))
	for i := range p.upstreams {
		if counts[i] > 0 {
			s.EstimatesBps[p.upstreams[i].url] = int64(sums[i] / float64(counts[i]))
		}
	}
	return s
}
