package experiments

import (
	"strconv"

	"streamcache/internal/core"
	"streamcache/internal/sim"
)

// TierColumns are the per-tier byte-fraction columns shared by the
// hierarchy experiment and cmd/loadgen's cluster summary, so the live
// harness and the simulator report the same shape. The four fractions
// partition the watched bytes by serving tier: local edge cache, peer
// owner's cache, parent cache, origin path.
var TierColumns = []string{
	"edge_byte_frac", "peer_byte_frac", "parent_byte_frac", "origin_byte_frac",
}

// HierarchyHeader is the hierarchy experiment's row schema; its tail
// is TierColumns.
var HierarchyHeader = []string{
	"cache_pct", "levels", "edges", "peering", "parent_frac",
	"traffic_reduction",
	"edge_byte_frac", "peer_byte_frac", "parent_byte_frac", "origin_byte_frac",
}

// hierarchyRow runs one hierarchy sweep point (the RunHierarchy
// counterpart of simRow: inner Parallelism pinned to 1, arena shared
// across the sweep).
func hierarchyRow(arena *sim.Arena, cfg sim.HierarchyConfig, render func(sim.HierarchyMetrics) []string) rowTask {
	return func() ([]string, error) {
		cfg.Parallelism = 1
		cfg.Arena = arena
		m, err := sim.RunHierarchy(cfg)
		if err != nil {
			return nil, err
		}
		return render(m), nil
	}
}

// hierarchyRunner sweeps the multi-node axis: tier depth (1 or 2 levels) x
// edge count x peering policy x parent capacity split, at each cache
// fraction. The single-edge single-level row coincides with the flat
// simulator (pinned by TestHierarchySingleNodeMatchesRun), so the
// sweep reads as "what does the same total cache buy when split
// across a cluster".
func hierarchyRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.Arena
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: TableMeta{
		Name:   "Hierarchy: levels x edges x peering under one cluster-wide cache budget (PB policy)",
		Header: HierarchyHeader,
	}}
	topologies := []struct {
		levels     int
		edges      int
		peering    sim.PeeringPolicy
		parentFrac float64
	}{
		{1, 1, sim.PeeringNone, 0},
		{1, 4, sim.PeeringNone, 0},
		{1, 4, sim.PeeringOwner, 0},
		{2, 4, sim.PeeringNone, 0.5},
		{2, 4, sim.PeeringOwner, 0.5},
	}
	for _, frac := range s.CacheFractions {
		for _, topo := range topologies {
			topo := topo
			sw.tasks = append(sw.tasks, hierarchyRow(arena, sim.HierarchyConfig{
				Config: sim.Config{
					Workload:   s.workload(),
					CacheBytes: int64(frac * float64(total)),
					Policy:     core.NewPB(),
					Runs:       s.Runs,
					Seed:       s.Seed,
				},
				Edges:          topo.edges,
				Levels:         topo.levels,
				ParentFraction: topo.parentFrac,
				Peering:        topo.peering,
			}, func(m sim.HierarchyMetrics) []string {
				return []string{
					f3(frac * 100),
					strconv.Itoa(topo.levels), strconv.Itoa(topo.edges), string(topo.peering),
					f3(topo.parentFrac),
					f3(m.TrafficReductionRatio),
					f3(m.EdgeByteFrac), f3(m.PeerByteFrac), f3(m.ParentByteFrac), f3(m.OriginByteFrac),
				}
			}))
		}
	}
	return sw, nil
}
