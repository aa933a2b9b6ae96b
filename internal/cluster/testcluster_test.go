package cluster

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/leaktest"
	"streamcache/internal/proxy"
)

// newCluster builds a test cluster that is closed when the test ends,
// after which no node may have a relay in flight and the goroutine
// count must be back where the test found it.
func newCluster(t *testing.T, cfg TestClusterConfig) *TestCluster {
	t.Helper()
	watch := leaktest.Start(t)
	tc, err := NewTestCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)
	for i := 0; i < tc.Edges(); i++ {
		watch(tc.Edge(i))
	}
	if tc.Parent() != nil {
		watch(tc.Parent())
	}
	return tc
}

// NewWatchedCluster is newCluster for the external test package.
var NewWatchedCluster = newCluster

// testCatalog builds a small catalog of known objects.
func testCatalog(t *testing.T, objects int, meanKB int64) *proxy.Catalog {
	t.Helper()
	c, err := proxy.BuildCatalog(objects, meanKB, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// remoteOwnedID returns an object id that edge `self` does not own on
// a ring of the given size, so fetching it from `self` exercises the
// peer hop.
func remoteOwnedID(t *testing.T, nodes, self, limit int) int {
	t.Helper()
	ring, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < limit; id++ {
		if ring.Owner(id) != self {
			return id
		}
	}
	t.Fatalf("no remote-owned object among %d ids", limit)
	return -1
}

// TestClusterHerdSingleOriginTransfer pins the acceptance criterion of
// the cross-node coalescer: a herd of clients at every edge, all cold
// on one object, costs exactly one transfer over the constrained
// origin path. Each edge coalesces its local herd, the edges coalesce
// at the consistent-hash owner, the owner coalesces at the parent, and
// the parent opens the only origin connection.
func TestClusterHerdSingleOriginTransfer(t *testing.T) {
	catalog := testCatalog(t, 8, 64)
	const id = 0
	meta, _ := catalog.Get(id)

	tc := newCluster(t, TestClusterConfig{
		Edges:            3,
		WithParent:       true,
		Catalog:          catalog,
		EdgeCacheBytes:   12 * meta.Size,
		ParentCacheBytes: 4 * meta.Size,
		NewPolicy:        core.NewLRU,
		// The origin path is the bottleneck: one transfer takes about a
		// second, so the whole herd lands inside the relay window.
		OriginRate: float64(meta.Size),
	})

	const clientsPerEdge = 3
	var wg sync.WaitGroup
	errs := make([]error, 3*clientsPerEdge)
	for c := 0; c < len(errs); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = tc.FetchVerified(c%3, id)
		}(c)
	}
	wg.Wait()
	tc.Quiesce()

	for c, err := range errs {
		if err != nil {
			t.Errorf("herd client %d: %v", c, err)
		}
	}
	if got := tc.OriginRequests(); got != 1 {
		t.Errorf("origin saw %d requests, want exactly 1 for the whole herd", got)
	}
	if got := tc.OriginBytes(); got != meta.Size {
		t.Errorf("origin served %d bytes, want exactly one copy (%d)", got, meta.Size)
	}
	for i := 0; i < tc.Edges(); i++ {
		if n := tc.Edge(i).InflightRelays(); n != 0 {
			t.Errorf("edge %d: %d relays still in flight after quiesce", i, n)
		}
	}
	if n := tc.Parent().InflightRelays(); n != 0 {
		t.Errorf("parent: %d relays still in flight after quiesce", n)
	}
}

// TestClusterParentDeathMidRelay scripts the ugliest failure: the
// parent dies while a herd's only origin transfer is streaming through
// it. Every edge must truncate cleanly — store bytes equal to
// accounting, no leaked relays — and the next request must recover by
// demoting the fetch to the origin.
func TestClusterParentDeathMidRelay(t *testing.T) {
	catalog := testCatalog(t, 8, 64)
	const id = 0
	meta, _ := catalog.Get(id)

	tc := newCluster(t, TestClusterConfig{
		Edges:            2,
		WithParent:       true,
		Catalog:          catalog,
		EdgeCacheBytes:   8 * meta.Size,
		ParentCacheBytes: 4 * meta.Size,
		NewPolicy:        core.NewLRU,
		OriginRate:       float64(meta.Size), // ~1s transfer: a wide kill window
	})

	var wg sync.WaitGroup
	herdErrs := make([]error, 4)
	for c := range herdErrs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, herdErrs[c] = tc.FetchVerified(c%2, id)
		}(c)
	}

	// Wait until the transfer is demonstrably mid-relay at every edge —
	// each edge's store is materializing bytes that came through the
	// parent — then kill the parent under it. (Killing earlier is a
	// different, easier case: a death before the first byte demotes to
	// the fallback inside openUpstream and the herd never notices.)
	deadline := time.Now().Add(5 * time.Second)
	for tc.Edge(0).StoredBytes(id) == 0 || tc.Edge(1).StoredBytes(id) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("relayed transfer never started streaming at both edges")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Let every herd client attach to its edge's in-flight relay; the
	// paced transfer has hundreds of milliseconds left.
	time.Sleep(50 * time.Millisecond)
	tc.KillParent()
	wg.Wait()
	tc.Quiesce()

	// The herd saw a truncated stream — every client must have gotten a
	// clean error, not a hang or a corrupt full-length body.
	for c, err := range herdErrs {
		if err == nil {
			t.Errorf("herd client %d: fetch completed although the parent died mid-relay", c)
		}
	}
	// No leaks: stores reconcile to accounting, relay tables drain.
	for i := 0; i < tc.Edges(); i++ {
		e := tc.Edge(i)
		if s, a := e.StoredBytes(id), e.AccountedBytes(id); s != a {
			t.Errorf("edge %d: stored %d bytes but accounted %d after truncation", i, s, a)
		}
		if n := e.InflightRelays(); n != 0 {
			t.Errorf("edge %d: %d relays leaked", i, n)
		}
	}

	// Recovery: the dead parent demotes the fetch to the origin before
	// the first byte, so fresh requests complete verified.
	for i := 0; i < tc.Edges(); i++ {
		if _, err := tc.FetchVerified(i, id); err != nil {
			t.Errorf("recovery fetch from edge %d: %v", i, err)
		}
	}
	tc.Quiesce()
	if got := tc.OriginRequests(); got < 2 {
		t.Errorf("origin saw %d requests, want the recovery transfer on top of the aborted one", got)
	}
}

// TestClusterPeerTimeoutFallsBackToOrigin scripts a wedged peer: the
// owner accepts the connection but never produces headers. The
// header-timeout demotion must fall back to the origin with exactly
// one extra fetch — no retry storm — and the response must still
// verify.
func TestClusterPeerTimeoutFallsBackToOrigin(t *testing.T) {
	catalog := testCatalog(t, 16, 32)
	tc := newCluster(t, TestClusterConfig{
		Edges:             2,
		Catalog:           catalog,
		EdgeCacheBytes:    1 << 22,
		NewPolicy:         core.NewLRU,
		PeerHeaderTimeout: 150 * time.Millisecond,
	})

	id := remoteOwnedID(t, 2, 0, catalog.Len())
	meta, _ := catalog.Get(id)

	// The owner hangs until the request is abandoned.
	tc.ReplaceEdgeHandler(1, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		<-req.Context().Done()
	}))

	before := tc.OriginRequests()
	start := time.Now()
	if _, err := tc.FetchVerified(0, id); err != nil {
		t.Fatalf("fetch through wedged peer: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("fetch took %v, before the header timeout could have fired", elapsed)
	}
	tc.Quiesce()
	if got := tc.OriginRequests() - before; got != 1 {
		t.Errorf("fallback cost %d origin fetches, want exactly 1", got)
	}
	st := tc.Edge(0).Snapshot()
	if st.TierBytes["peer"] != 0 {
		t.Errorf("edge 0 accounted %d peer bytes from a peer that never answered", st.TierBytes["peer"])
	}
	if st.TierBytes["origin"] != meta.Size {
		t.Errorf("edge 0 accounted %d origin bytes, want %d", st.TierBytes["origin"], meta.Size)
	}
	tc.RestoreEdge(1)
}

// TestClusterDeadPeerFallsBackToOrigin is the crashed-peer variant: a
// connection refused demotes immediately (no timeout needed) and costs
// exactly one origin fetch.
func TestClusterDeadPeerFallsBackToOrigin(t *testing.T) {
	catalog := testCatalog(t, 16, 32)
	tc := newCluster(t, TestClusterConfig{
		Edges:          2,
		Catalog:        catalog,
		EdgeCacheBytes: 1 << 22,
		NewPolicy:      core.NewLRU,
	})

	id := remoteOwnedID(t, 2, 0, catalog.Len())
	tc.KillEdge(1)

	before := tc.OriginRequests()
	if _, err := tc.FetchVerified(0, id); err != nil {
		t.Fatalf("fetch past dead peer: %v", err)
	}
	tc.Quiesce()
	if got := tc.OriginRequests() - before; got != 1 {
		t.Errorf("fallback cost %d origin fetches, want exactly 1", got)
	}
}

// TestClusterInvariantStress extends the sharded-proxy stress test
// across a 3-edge + parent cluster: a mixed hot/cold herd with ranged
// peer resumes, eviction pressure and relay truncation races, then the
// post-quiesce invariant on every node — the materialized store and
// the cache accounting must agree byte for byte, and no relay may
// leak. Run under -race this is the cluster's locking regression test.
func TestClusterInvariantStress(t *testing.T) {
	const objects = 40
	catalog := testCatalog(t, objects, 16)
	var total int64
	for id := 0; id < objects; id++ {
		meta, _ := catalog.Get(id)
		total += meta.Size
	}
	tc := newCluster(t, TestClusterConfig{
		Edges:      3,
		WithParent: true,
		Catalog:    catalog,
		// Tight budgets force eviction churn under the herd.
		EdgeCacheBytes:   total / 3,
		ParentCacheBytes: total / 4,
		NewPolicy:        core.NewLRU,
		Shards:           2,
	})

	const (
		workers          = 12
		fetchesPerWorker = 25
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers*fetchesPerWorker)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < fetchesPerWorker; k++ {
				// Alternate a hot set (coalescing herds) with a cold
				// tail (eviction churn), deterministically per worker.
				id := (g*31 + k*17) % objects
				if k%2 == 0 {
					id %= 8
				}
				if _, err := tc.FetchVerified((g+k)%3, id); err != nil {
					errCh <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	tc.Quiesce()
	nodes := map[string]*proxy.Proxy{"edge0": tc.Edge(0), "edge1": tc.Edge(1), "edge2": tc.Edge(2), "parent": tc.Parent()}
	for name, node := range nodes {
		for id := 0; id < objects; id++ {
			if s, a := node.StoredBytes(id), node.AccountedBytes(id); s != a {
				t.Errorf("%s object %d: stored %d bytes, accounted %d", name, id, s, a)
			}
		}
		if n := node.InflightRelays(); n != 0 {
			t.Errorf("%s: %d relays still in flight after quiesce", name, n)
		}
	}
}

// TestClusterSmoke is the cluster-check gate: a 3-edge + parent
// cluster under a skewed sequential workload must serve every object
// verified, push a nonzero share of bytes through the peer tier, and
// drain cleanly.
func TestClusterSmoke(t *testing.T) {
	const objects = 24
	catalog := testCatalog(t, objects, 32)
	tc := newCluster(t, TestClusterConfig{
		Edges:            3,
		WithParent:       true,
		Catalog:          catalog,
		EdgeCacheBytes:   3 << 21,
		ParentCacheBytes: 1 << 21,
		NewPolicy:        core.NewLRU,
	})

	var watched, originBefore int64
	originBefore = tc.OriginBytes()
	for k := 0; k < 96; k++ {
		id := (k * k) % objects // skewed repeats: hot ids recur across edges
		meta, _ := catalog.Get(id)
		if _, err := tc.FetchVerified(k%3, id); err != nil {
			t.Fatalf("request %d (object %d): %v", k, id, err)
		}
		watched += meta.Size
	}
	tc.Quiesce()

	var peerBytes int64
	for i := 0; i < tc.Edges(); i++ {
		st := tc.Edge(i).Snapshot()
		peerBytes += st.TierBytes["peer"]
		if st.Tier != "edge" {
			t.Errorf("edge %d reports tier %q", i, st.Tier)
		}
	}
	if peerBytes == 0 {
		t.Error("no bytes traveled the peer tier under a skewed cross-edge workload")
	}
	if tc.Parent().Snapshot().Tier != "parent" {
		t.Error("parent node does not report its tier")
	}
	if saved := watched - (tc.OriginBytes() - originBefore); saved <= 0 {
		t.Errorf("cluster saved %d bytes over the origin path, want > 0", saved)
	}
	for i := 0; i < tc.Edges(); i++ {
		if n := tc.Edge(i).InflightRelays(); n != 0 {
			t.Errorf("edge %d: %d relays still in flight after quiesce", i, n)
		}
	}
}
