package experiments

import (
	"strconv"

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

// hierarchy sweeps the multi-node axis: tier depth (1 or 2 levels) x
// edge count x peering policy x parent capacity split, at each cache
// fraction. The single-edge single-level row is the flat simulator:
// sim normalises it to figure5's PB point at the same cache fraction,
// so it is a member of that share key and, where both tables run, is
// answered by figure5's capacity pass. The sweep reads as "what does
// the same total cache buy when split across a cluster".
var hierarchy = spec{
	name: "Hierarchy: levels x edges x peering under one cluster-wide cache budget (PB policy)",
	axes: []axisFn{cacheAxis, pbPolicy, choice("levels,edges,peering,parent_frac",
		topology(1, 1, sim.PeeringNone, 0),
		topology(1, 4, sim.PeeringNone, 0),
		topology(1, 4, sim.PeeringOwner, 0),
		topology(2, 4, sim.PeeringNone, 0.5),
		topology(2, 4, sim.PeeringOwner, 0.5),
	)},
	metrics: append([]string{"traffic_reduction"}, TierColumns...),
}

// topology is one cluster shape of the hierarchy sweep.
func topology(levels, edges int, peering sim.PeeringPolicy, parentFrac float64) level {
	return level{
		cells: []string{strconv.Itoa(levels), strconv.Itoa(edges), string(peering), f3(parentFrac)},
		set: func(pt *point) {
			pt.Levels, pt.Edges, pt.Peering, pt.ParentFraction = levels, edges, peering, parentFrac
		},
	}
}
