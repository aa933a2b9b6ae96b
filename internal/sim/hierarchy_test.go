package sim

import (
	"cmp"
	"fmt"
	"math"
	"testing"

	"streamcache/internal/cluster"
	"streamcache/internal/core"
)

func hierarchyBase() HierarchyConfig {
	return HierarchyConfig{
		Config: Config{
			Workload:   testWorkload(),
			CacheBytes: cachePct(2),
			Policy:     core.NewPB(),
			Runs:       2,
			Seed:       42,
		},
		Levels: 1,
	}
}

func TestHierarchyValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*HierarchyConfig)
	}{
		{name: "estimators set", mutate: func(c *HierarchyConfig) { c.Estimator = EWMA{0.3} }},
		{name: "topology without levels", mutate: func(c *HierarchyConfig) { c.Levels, c.Edges = 0, 4 }},
		{name: "negative edges", mutate: func(c *HierarchyConfig) { c.Edges = -2 }},
		{name: "three levels", mutate: func(c *HierarchyConfig) { c.Levels = 3 }},
		{name: "parent fraction one", mutate: func(c *HierarchyConfig) { c.Levels = 2; c.ParentFraction = 1 }},
		{name: "parent fraction without parent", mutate: func(c *HierarchyConfig) { c.Levels = 1; c.ParentFraction = 0.5 }},
		{name: "unknown peering", mutate: func(c *HierarchyConfig) { c.Peering = "gossip" }},
		{name: "bad base config", mutate: func(c *HierarchyConfig) { c.Policy = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := hierarchyBase()
			tt.mutate(&cfg)
			if _, err := RunHierarchy(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// withTopology is cfg normalised with its topology set back after
// normalize, which folds a one-edge, one-level point into its flat
// Config: the tests and the benchmark that check or time
// hierarchyRunOnce at one node reach the cluster loop through it.
func withTopology(tb testing.TB, cfg HierarchyConfig) HierarchyConfig {
	tb.Helper()
	norm, err := cfg.normalize()
	if err != nil {
		tb.Fatal(err)
	}
	norm.Levels, norm.Edges, norm.Peering = cfg.Levels, max(cfg.Edges, 1), cmp.Or(cfg.Peering, PeeringNone)
	return norm
}

// runTopology is RunHierarchy through the cluster loop at cfg's
// topology as asked, one edge and one level included.
func runTopology(tb testing.TB, cfg HierarchyConfig) (Metrics, error) {
	cfg = withTopology(tb, cfg)
	return averageRuns(cfg.Config, "hierarchy run", func(seed int64) (Metrics, error) { return hierarchyRunOnce(cfg, seed) },
		(*Metrics).add, (*Metrics).over)
}

// TestHierarchySingleNodeMatchesRun pins the hierarchy model to the
// flat simulator: one edge, one level is the same system, so the
// traffic reduction ratio and all four byte fractions of the cluster
// loop must agree with Run's bit for bit, not just within tolerance, at
// every cache size, with and without partial viewing, at every seed.
// That equality is why withDefaults folds such a point into its flat
// Config, so RunHierarchy on it is Run, and it is a member of its flat
// share key. This is the sim side of the sim-vs-live cross-validation
// triangle (the live side is cluster's
// TestClusterHitRatioMatchesSimulator).
func TestHierarchySingleNodeMatchesRun(t *testing.T) {
	for _, partial := range []float64{0, 0.4} {
		for _, pct := range []float64{0.5, 1, 2, 5, 10} {
			for _, seed := range []int64{1, 7, 42} {
				cfg := hierarchyBase()
				cfg.Workload.PartialViewProb = partial
				cfg.CacheBytes, cfg.Seed = cachePct(pct), seed
				flat, err := Run(cfg.Config)
				if err != nil {
					t.Fatal(err)
				}
				if folded, err := RunHierarchy(cfg); err != nil {
					t.Fatal(err)
				} else if folded != flat {
					t.Errorf("partial=%v cache=%v%% seed=%d: RunHierarchy of one node %+v != Run %+v", partial, pct, seed, folded, flat)
				}
				h, err := runTopology(t, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if h.Requests != flat.Requests || h.TrafficReductionRatio != flat.TrafficReductionRatio ||
					h.EdgeByteFrac != flat.EdgeByteFrac || h.PeerByteFrac != flat.PeerByteFrac ||
					h.ParentByteFrac != flat.ParentByteFrac || h.OriginByteFrac != flat.OriginByteFrac {
					t.Errorf("partial=%v cache=%v%% seed=%d: 1x1 hierarchy %+v != flat %+v (must be exact)", partial, pct, seed, h, flat)
				}
				// perRequestMeans prices each request at its path mean
				// too, but in a column per request: the targets both
				// oracle loops compute once per object must be the ones
				// the policy gives each request.
				perRequest := cfg.Config
				perRequest.Estimator = perRequestMeans{}
				if pr, err := Run(perRequest); err != nil {
					t.Fatal(err)
				} else if pr != flat {
					t.Errorf("partial=%v cache=%v%% seed=%d: oracle run %+v != per-request targets %+v (must be exact)", partial, pct, seed, flat, pr)
				}
				if h.PeerByteFrac != 0 || h.ParentByteFrac != 0 {
					t.Errorf("partial=%v cache=%v%% seed=%d: single node served peer=%v parent=%v bytes, want 0",
						partial, pct, seed, h.PeerByteFrac, h.ParentByteFrac)
				}
			}
		}
	}
}

// perRequestMeans is the oracle as a per-request estimate column:
// request i, for object o, is priced at the path mean of o.
type perRequestMeans struct{}

func (perRequestMeans) Validate() error { return nil }

func (perRequestMeans) observes() bool { return false }

func (perRequestMeans) prices(dst []float64, rp *tape, _ column) (column, error) {
	dst = fit(dst, len(rp.obj))
	for i, o := range rp.obj {
		dst[i] = rp.means[o]
	}
	return column{inst: dst, perRequest: true}, nil
}

// TestHierarchySkipMatchesEveryAccess holds hierarchyRunOnce, which
// skips every hop for a request whose object's oracle target is 0, to
// everyAccessRunOnce, which sends every request through every tier it
// reaches: the four cluster shapes of the hierarchy table, at capacities
// from a sliver to more than the catalog, on tapes from several
// workload seeds, with and without partial viewing. Each tape holds
// objects whose path outruns their rate (PB's target 0) and objects PB
// caches, or the skip would go untested.
func TestHierarchySkipMatchesEveryAccess(t *testing.T) {
	for _, partial := range []float64{0, 0.4} {
		for _, seed := range []int64{3, 11, 29} {
			base := hierarchyBase()
			base.Workload.PartialViewProb = partial
			base.Seed, base.Arena = seed, NewArena()
			runSeed := SplitSeed(seed, 0)
			rp, err := base.Arena.tapeOf(base.Config, runSeed)
			if err != nil {
				t.Fatal(err)
			}
			zero, positive := 0, 0
			for o, obj := range rp.objs {
				if base.Policy.Target(obj, rp.means[o]) > 0 {
					positive++
				} else {
					zero++
				}
			}
			if zero == 0 || positive == 0 {
				t.Fatalf("seed %d: %d objects with target 0 and %d with a positive one, want both", seed, zero, positive)
			}
			for _, top := range hierarchyTopologies[1:] {
				for _, pct := range []float64{0.5, 2, 10, 200} {
					cfg := base
					cfg.CacheBytes = cachePct(pct)
					cfg.Levels, cfg.Edges, cfg.Peering, cfg.ParentFraction = top.levels, top.edges, top.peering, top.parentFrac
					if cfg, err = cfg.normalize(); err != nil {
						t.Fatal(err)
					}
					got, err := hierarchyRunOnce(cfg, runSeed)
					if err != nil {
						t.Fatal(err)
					}
					if want := everyAccessRunOnce(t, cfg, runSeed); got != want {
						t.Errorf("%s partial=%v seed=%d cache=%v%%: skipping %+v != every access %+v", top.name, partial, seed, pct, got, want)
					}
				}
			}
		}
	}
}

// everyAccessRunOnce is hierarchyRunOnce without the zero-target skip:
// every request goes through its edge and then, as far as its bytes
// reach, its owner and the parent, each tier pricing it at its path
// mean through the policy's own Target.
func everyAccessRunOnce(t *testing.T, cfg HierarchyConfig, seed int64) Metrics {
	t.Helper()
	rp, err := cfg.Arena.tapeOf(cfg.Config, seed)
	if err != nil {
		t.Fatal(err)
	}
	newCache := func(capacity int64) *core.Cache {
		c, err := core.New(capacity, cfg.Policy, cfg.cacheOptions(len(rp.objs))...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var parent *core.Cache
	var parentBytes int64
	if cfg.Levels == 2 {
		parentBytes = int64(cfg.ParentFraction * float64(cfg.CacheBytes))
		parent = newCache(parentBytes)
	}
	var edges []*core.Cache
	for _, capacity := range core.SplitCapacity(cfg.CacheBytes-parentBytes, cfg.Edges) {
		edges = append(edges, newCache(capacity))
	}
	ring, err := cluster.NewRing(cfg.Edges, cluster.DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	var edgeB, peerB, parentB, originB, totB int64
	for i, o := range rp.obj {
		obj, est, now := rp.objs[o], rp.means[o], rp.time[i]
		target, watched := cfg.Policy.Target(obj, est), rp.watchedAt(i, obj.Size)
		e, owner := i%cfg.Edges, i%cfg.Edges
		if cfg.Peering == PeeringOwner {
			owner = ring.Owner(obj.ID)
		}
		hit, _, _, _, _ := edges[e].AccessWithTarget(obj, target, est, now)
		reqEdge := min(hit, watched)
		off := reqEdge
		var reqPeer, reqParent int64
		if off < watched && owner != e {
			reqPeer = tierServe(edges[owner], obj, target, est, now, off, watched)
			off += reqPeer
		}
		if off < watched && parent != nil {
			reqParent = tierServe(parent, obj, target, est, now, off, watched)
			off += reqParent
		}
		if i < warmup(len(rp.obj)) {
			continue
		}
		m.Requests++
		edgeB, peerB, parentB = edgeB+reqEdge, peerB+reqPeer, parentB+reqParent
		originB, totB = originB+watched-off, totB+watched
	}
	if totB > 0 {
		t := float64(totB)
		m.TrafficReductionRatio = float64(totB-originB) / t
		m.EdgeByteFrac, m.PeerByteFrac = float64(edgeB)/t, float64(peerB)/t
		m.ParentByteFrac, m.OriginByteFrac = float64(parentB)/t, float64(originB)/t
	}
	return m
}

// utilityCounter is a policy that counts, per object ID, the accesses
// that reach its Utility: one per request a cache handles.
type utilityCounter struct {
	core.Policy
	seen map[int]int
}

func (p *utilityCounter) Utility(st core.AccessStats, obj core.Object, bw float64) float64 {
	p.seen[obj.ID]++
	return p.Policy.Utility(st, obj, bw)
}

// TestZeroTargetSkipsTheCache: under the oracle no object whose target
// is 0 reaches a cache's Utility in either request loop, while every
// request of an object PB caches does; under a per-request price
// column every request reaches it, target 0 or not, because a later
// request of the same object may be priced into the cache and its
// utility reads the frequency the earlier ones counted.
func TestZeroTargetSkipsTheCache(t *testing.T) {
	count := &utilityCounter{Policy: core.NewPB(), seen: map[int]int{}}
	base := hierarchyBase()
	base.Policy = count
	cfg, err := base.normalize()
	if err != nil {
		t.Fatal(err)
	}
	seed := SplitSeed(cfg.Seed, 0)
	rp, err := cfg.Arena.tapeOf(cfg.Config, seed)
	if err != nil {
		t.Fatal(err)
	}
	requests, skipped := map[int]int{}, 0
	for _, o := range rp.obj {
		requests[int(o)]++
		if count.Policy.Target(rp.objs[o], rp.means[o]) <= 0 {
			skipped++
		}
	}
	if skipped == 0 || skipped == len(rp.obj) {
		t.Fatalf("%d of %d requests ask for an object with target 0, want some and not all", skipped, len(rp.obj))
	}
	// check holds each object's count after one loop to its requests, or
	// to none where the loop skips it; a cluster's miss may reach an
	// owner and a parent too, so there a count may be larger.
	check := func(loop string, skips, oneTier bool) {
		t.Helper()
		for o, obj := range rp.objs {
			target := count.Policy.Target(obj, rp.means[o])
			want, got := requests[o], count.seen[o]
			if skips && target <= 0 {
				want = 0
			}
			if got != want && (oneTier || want == 0 || got < want) {
				t.Errorf("%s: object %d (target %d, %d requests) reached Utility %d times, want %d", loop, o, target, requests[o], got, want)
			}
		}
		clear(count.seen)
	}
	col := []column{{inst: rp.means}}
	for _, estimator := range []Estimator{nil, perRequestMeans{}} {
		one := cfg.Config
		one.Estimator = estimator
		if err := replayColumns(one, rp, cfg.CacheBytes, col, make([]Metrics, 1)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("replayColumns, estimator %T", estimator), estimator == nil, true)
	}
	for _, top := range hierarchyTopologies[1:] {
		h := cfg
		h.Levels, h.Edges, h.Peering, h.ParentFraction = top.levels, top.edges, top.peering, top.parentFrac
		if h, err = h.normalize(); err != nil {
			t.Fatal(err)
		}
		if _, err := hierarchyRunOnce(h, seed); err != nil {
			t.Fatal(err)
		}
		check("hierarchyRunOnce "+top.name, true, false)
	}
}

// TestOneNodeIsFlat: a one-edge, one-level point, whatever its
// peering, is grouped with its flat Config, while one edge under a
// parent tier stays a cluster whose parent serves bytes.
func TestOneNodeIsFlat(t *testing.T) {
	node, owner := hierarchyBase(), hierarchyBase()
	owner.Peering = PeeringOwner
	parent := hierarchyBase()
	parent.Levels, parent.ParentFraction = 2, 0.5
	if ids := GroupOf([]HierarchyConfig{{Config: node.Config}, node, owner, parent}); ids[1] != ids[0] || ids[2] != ids[0] || ids[3] == ids[0] {
		t.Errorf("groups of flat, 1x1, 1x1 owner, 2x1 = %v, want the first three one group and the last its own", ids)
	}
	m, err := RunHierarchy(parent)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentByteFrac == 0 {
		t.Errorf("one edge under a parent: parent served no bytes (%+v)", m)
	}
}

// TestHierarchyTierFractionsPartition checks the byte accounting of a
// full 2-level peered cluster: the four tier fractions partition the
// watched bytes, every tier of the chain actually serves something,
// and the traffic reduction ratio is 1 minus the origin share.
func TestHierarchyTierFractionsPartition(t *testing.T) {
	cfg := hierarchyBase()
	cfg.Edges = 4
	cfg.Levels = 2
	cfg.ParentFraction = 0.5
	cfg.Peering = PeeringOwner
	m, err := RunHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := m.EdgeByteFrac + m.PeerByteFrac + m.ParentByteFrac + m.OriginByteFrac
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("tier fractions sum to %v, want 1", sum)
	}
	for name, f := range map[string]float64{
		"edge": m.EdgeByteFrac, "peer": m.PeerByteFrac,
		"parent": m.ParentByteFrac, "origin": m.OriginByteFrac,
	} {
		if f < 0 || f > 1 {
			t.Errorf("%s fraction %v outside [0,1]", name, f)
		}
	}
	if m.PeerByteFrac == 0 {
		t.Error("owner peering served no peer bytes")
	}
	if m.ParentByteFrac == 0 {
		t.Error("parent tier served no bytes")
	}
	if got := 1 - m.OriginByteFrac; math.Abs(got-m.TrafficReductionRatio) > 1e-9 {
		t.Errorf("TRR %v != 1 - origin frac %v", m.TrafficReductionRatio, got)
	}
}

// TestHierarchyPeeringConsolidatesCopies: with the cluster budget split
// across 4 edges, owner peering must beat isolated edges — isolated
// edges hold ~4 duplicate copies of every popular prefix, peering holds
// ~one copy cluster-wide, so more unique bytes fit and fewer bytes
// travel the origin path.
func TestHierarchyPeeringConsolidatesCopies(t *testing.T) {
	iso := hierarchyBase()
	iso.Edges = 4
	peered := iso
	peered.Peering = PeeringOwner
	mi, err := RunHierarchy(iso)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := RunHierarchy(peered)
	if err != nil {
		t.Fatal(err)
	}
	if mp.TrafficReductionRatio <= mi.TrafficReductionRatio {
		t.Errorf("peered TRR %v <= isolated TRR %v, want consolidation to win",
			mp.TrafficReductionRatio, mi.TrafficReductionRatio)
	}
}

// TestHierarchyDeterministic pins bit-identical metrics across repeat
// runs and across Parallelism values, like the flat simulator's suite.
func TestHierarchyDeterministic(t *testing.T) {
	cfg := hierarchyBase()
	cfg.Edges = 3
	cfg.Levels = 2
	cfg.ParentFraction = 0.3
	cfg.Peering = PeeringOwner
	cfg.Runs = 3
	var got []Metrics
	for _, par := range []int{1, 1, 4} {
		cfg.Parallelism = par
		m, err := RunHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if got[0] != got[1] || got[0] != got[2] {
		t.Errorf("hierarchy metrics differ across runs/parallelism: %+v vs %+v vs %+v", got[0], got[1], got[2])
	}
}

// hierarchyTopologies are the hierarchy table's five cluster shapes,
// copied from internal/experiments' hierarchy spec:
// TestHierarchyTopologiesMatchSimCopy fails there when the spec's
// shapes change, and this list must then change with them.
var hierarchyTopologies = []struct {
	name       string
	levels     int
	edges      int
	peering    PeeringPolicy
	parentFrac float64
}{
	{"1x1", 1, 1, PeeringNone, 0},
	{"1x4", 1, 4, PeeringNone, 0},
	{"1x4-owner", 1, 4, PeeringOwner, 0},
	{"2x4", 2, 4, PeeringNone, 0.5},
	{"2x4-owner", 2, 4, PeeringOwner, 0.5},
}

// BenchmarkHierarchy is the hierarchy table's in-tree rung: one run of
// one paper-scale seed per op through each of the table's five
// topologies at the scale's middle cache fraction. The table scores its
// 1x1 rows as flat points; 1x1 here times the cluster loop at one node,
// the reference TestHierarchySingleNodeMatchesRun holds to Run.
//
//	go test ./internal/sim -run '^$' -bench Hierarchy -benchmem
func BenchmarkHierarchy(b *testing.B) {
	arena := NewArena()
	wl := paperWorkload()
	mid := paperCapacities(b, arena, wl)[3]
	seed := SplitSeed(1, 0)
	for _, top := range hierarchyTopologies {
		cfg := withTopology(b, HierarchyConfig{
			Config: Config{Workload: wl, CacheBytes: mid, Policy: core.NewPB(), Seed: 1, Arena: arena},
			Levels: top.levels, Edges: top.edges, Peering: top.peering, ParentFraction: top.parentFrac,
		})
		if _, err := arena.tapeOf(cfg.Config, seed); err != nil { // compile the tape outside the timer
			b.Fatal(err)
		}
		b.Run(top.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := hierarchyRunOnce(cfg, seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
