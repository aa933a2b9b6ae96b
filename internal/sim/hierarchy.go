package sim

import (
	"fmt"

	"streamcache/internal/cluster"
	"streamcache/internal/core"
)

// PeeringPolicy selects how edge nodes cooperate in a hierarchy run.
type PeeringPolicy string

const (
	// PeeringNone sends every edge miss straight up (parent, then
	// origin) — edges are isolated caches.
	PeeringNone PeeringPolicy = "none"
	// PeeringOwner forwards an edge miss to the object's
	// consistent-hash owner before the parent tier, so the cluster
	// holds ~one copy of each object across edges.
	PeeringOwner PeeringPolicy = "owner"
)

// HierarchyConfig parameterizes a multi-node hierarchy run: the
// embedded Config's CacheBytes is the cluster-wide budget, split
// between the parent tier (ParentFraction, when Levels is 2) and the
// edges (evenly, via core.SplitCapacity). Request i goes to edge
// i % Edges — the same assignment cmd/loadgen uses against a live
// cluster, which is what lets TestClusterHitRatioMatchesSimulator pin
// the two against each other.
//
// Only the oracle estimator is supported (Estimator must be nil):
// every tier prices an object by its origin path's mean bandwidth, the
// paper's utility, whichever hop its misses travel.
//
// A HierarchyConfig whose Levels is 0 is its flat Config, run by Run,
// and so is one edge with no parent tier: withDefaults folds a valid
// Levels 1, Edges 1 point to Levels 0, since a lone edge is the paper's
// one proxy and owns every object it is asked for, whatever its
// peering. That is the one rule for which simulator a point runs, and
// GroupOf, Declare, ScorePending and RunHierarchy all read the folded
// point. A Levels 0 point's other topology fields must be unset.
type HierarchyConfig struct {
	Config

	// Edges is the number of edge nodes (0 means 1).
	Edges int
	// Levels is the tier depth: 1 = edges -> origin, 2 = edges ->
	// parent -> origin, 0 = the flat simulator.
	Levels int
	// ParentFraction is the share of CacheBytes given to the parent
	// tier when Levels is 2.
	ParentFraction float64
	// Peering selects edge cooperation ("" means PeeringNone).
	Peering PeeringPolicy
}

func (c HierarchyConfig) normalize() (HierarchyConfig, error) {
	c, err := c.withDefaults()
	if err == nil && c.Arena == nil {
		c.Arena = NewArena()
	}
	return c, err
}

// withDefaults is normalize without the arena: c validated, with every
// unset field at its default.
func (c HierarchyConfig) withDefaults() (HierarchyConfig, error) {
	if c.Levels == 0 {
		if c.Edges != 0 || c.ParentFraction != 0 || c.Peering != "" {
			return c, fmt.Errorf("%w: Levels=0 (the flat simulator) with Edges=%d ParentFraction=%v Peering=%q", ErrBadConfig, c.Edges, c.ParentFraction, c.Peering)
		}
		flat, err := c.Config.withDefaults()
		c.Config = flat
		return c, err
	}
	if c.Estimator != nil {
		return c, fmt.Errorf("%w: hierarchy runs support only the oracle estimator (Estimator must be nil)", ErrBadConfig)
	}
	if c.Edges == 0 {
		c.Edges = 1
	}
	if c.Edges < 0 {
		return c, fmt.Errorf("%w: Edges=%d", ErrBadConfig, c.Edges)
	}
	if c.Levels != 1 && c.Levels != 2 {
		return c, fmt.Errorf("%w: Levels=%d, want 1 or 2", ErrBadConfig, c.Levels)
	}
	if c.ParentFraction < 0 || c.ParentFraction >= 1 {
		return c, fmt.Errorf("%w: ParentFraction=%v, want in [0,1)", ErrBadConfig, c.ParentFraction)
	}
	if c.Levels == 1 && c.ParentFraction != 0 {
		return c, fmt.Errorf("%w: ParentFraction=%v with Levels=1", ErrBadConfig, c.ParentFraction)
	}
	switch c.Peering {
	case "", PeeringNone:
		c.Peering = PeeringNone
	case PeeringOwner:
	default:
		return c, fmt.Errorf("%w: Peering=%q", ErrBadConfig, c.Peering)
	}
	base, err := c.Config.withDefaults()
	c.Config = base
	if err == nil && c.Levels == 1 && c.Edges == 1 {
		c.Levels, c.Edges, c.Peering = 0, 0, ""
	}
	return c, err
}

// RunHierarchy executes the hierarchy experiment, averaging over
// cfg.Runs seeded runs exactly like Run (bit-identical at any
// Parallelism). It fills Requests, TrafficReductionRatio (the
// cluster-wide 1 - origin bytes / watched bytes) and the four byte
// fractions; the other Metrics stay zero. On a point that normalises
// to Levels 0, one edge at one level among them, it is Run, which fills
// every field.
func RunHierarchy(cfg HierarchyConfig) (Metrics, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return Metrics{}, err
	}
	if cfg.Levels == 0 {
		return Run(cfg.Config)
	}
	return averageRuns(cfg.Config, "hierarchy run", func(seed int64) (Metrics, error) { return hierarchyRunOnce(cfg, seed) },
		(*Metrics).add, (*Metrics).over)
}

// hierarchyRunOnce replays one seeded trace through the modeled
// cluster. The fetch chain mirrors the live tier byte for byte:
//
//	edge cache -> (owner's cache, if peering and remote) ->
//	(parent cache, if two levels) -> origin
//
// with each tier serving what it holds past the resume offset and the
// remainder descending a level. A ranged relay cannot extend a cache
// past a gap (the live PrefixStore drops non-contiguous appends and
// post-relay reconciliation truncates the grant), which the model
// mirrors by undoing an owner's or parent's prefix growth whenever the
// resume offset lies beyond its stored prefix. No normalised point runs
// it at one edge and one level (withDefaults makes that point flat);
// there it is the reference TestHierarchySingleNodeMatchesRun holds to
// Run.
func hierarchyRunOnce(cfg HierarchyConfig, seed int64) (Metrics, error) {
	rp, err := cfg.Arena.tapeOf(cfg.Config, seed)
	if err != nil {
		return Metrics{}, err
	}

	// Capacity split: the parent takes its fraction off the top, the
	// edges split the rest evenly.
	var parentBytes int64
	if cfg.Levels == 2 {
		parentBytes = int64(cfg.ParentFraction * float64(cfg.CacheBytes))
	}
	edgeCaps := core.SplitCapacity(cfg.CacheBytes-parentBytes, cfg.Edges)
	if edgeCaps == nil {
		return Metrics{}, fmt.Errorf("%w: edge budget %d over %d edges", ErrBadConfig, cfg.CacheBytes-parentBytes, cfg.Edges)
	}
	// Every node's cache comes from the one pooled scratch replayColumns uses:
	// caches 0..Edges-1 are the edges, cache Edges the parent.
	scratch := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(scratch)
	opts := cfg.cacheOptions(len(rp.objs))
	for e, capacity := range edgeCaps {
		if _, err := scratch.cache(e, capacity, cfg.Policy, opts); err != nil {
			return Metrics{}, err
		}
	}
	var parent *core.Cache
	if cfg.Levels == 2 {
		if parent, err = scratch.cache(cfg.Edges, parentBytes, cfg.Policy, opts); err != nil {
			return Metrics{}, err
		}
	}
	edges := scratch.caches[:cfg.Edges]
	// The owner of each object, looked up on the ring once per run
	// rather than once per request; nil without peering.
	var owners []int32
	if cfg.Peering == PeeringOwner && cfg.Edges > 1 {
		ring, err := cluster.NewRing(cfg.Edges, cluster.DefaultVirtualNodes)
		if err != nil {
			return Metrics{}, err
		}
		scratch.owners = fit(scratch.owners, len(rp.objs))
		owners = scratch.owners
		for o, obj := range rp.objs {
			owners[o] = int32(ring.Owner(obj.ID))
		}
	}
	// Every tier prices an object at its oracle mean, so one target
	// column serves them all.
	scratch.targets = priceTargets(scratch.targets, cfg.Policy, rp, column{inst: rp.means})
	targets := scratch.targets

	warm := warmup(len(rp.obj))
	var (
		m                                    Metrics
		edgeB, peerB, parentB, originB, totB int64
	)
	for i, o := range rp.obj {
		obj, target := rp.objs[o], targets[o]
		watched := rp.watchedAt(i, obj.Size)
		// An object whose target is 0 is cached by no tier, so its bytes
		// come from the origin and its request skips every hop: as in
		// replayColumns, the accesses it skips would move only its own
		// freq and last, which nothing reads while its one oracle target
		// is 0.
		var reqEdge, reqPeer, reqParent, off int64
		if target > 0 {
			est, now, e := rp.means[o], rp.time[i], i%cfg.Edges
			owner := e
			if owners != nil {
				owner = int(owners[o])
			}

			// Edge hop. Local clients always resume from byte 0, so the
			// edge's granted prefix growth always materializes.
			hit, _, _, _, _ := edges[e].AccessWithTarget(obj, target, est, now)
			reqEdge = min(hit, watched)
			off = reqEdge

			// Owner hop.
			if off < watched && owner != e {
				reqPeer = tierServe(edges[owner], obj, target, est, now, off, watched)
				off += reqPeer
			}
			// Parent hop.
			if off < watched && cfg.Levels == 2 {
				reqParent = tierServe(parent, obj, target, est, now, off, watched)
				off += reqParent
			}
		}

		if i < warm {
			continue
		}
		m.Requests++
		edgeB += reqEdge
		peerB += reqPeer
		parentB += reqParent
		originB += watched - off
		totB += watched
	}
	if totB > 0 {
		t := float64(totB)
		m.TrafficReductionRatio = float64(totB-originB) / t
		m.EdgeByteFrac = float64(edgeB) / t
		m.PeerByteFrac = float64(peerB) / t
		m.ParentByteFrac = float64(parentB) / t
		m.OriginByteFrac = float64(originB) / t
	}
	return m, nil
}

// tierServe models one upper-tier cache serving a ranged resume at
// offset off: the tier grants its policy decision (target, the
// object's oracle target), serves what it holds past off (clamped to
// watched), and — when off lies beyond its stored prefix — has its
// growth undone, because the live tier's ranged relay starts past the
// gap and the PrefixStore refuses non-contiguous appends (post-relay
// reconciliation then truncates the accounting back to what was
// stored).
func tierServe(c *core.Cache, obj core.Object, target int64, est, now float64, off, watched int64) int64 {
	hit, after, _, _, _ := c.AccessWithTarget(obj, target, est, now)
	if off > hit {
		keep := hit
		if after < keep {
			keep = after // the policy shrank it regardless
		}
		c.Truncate(obj.ID, keep)
		return 0
	}
	top := hit
	if top > watched {
		top = watched
	}
	if top <= off {
		return 0
	}
	return top - off
}
