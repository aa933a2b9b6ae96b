package cluster

import (
	"fmt"
	"time"

	"streamcache/internal/proxy"
)

// NodeConfig describes one node's place in a cluster and compiles into
// the proxy's routing seam.
type NodeConfig struct {
	// Peers lists every edge node's base URL in ring order, self
	// included. Every node of the cluster must be configured with the
	// identical list: placement is positional (index on the ring), so a
	// reordered list silently splits ownership. Empty means no peering
	// tier (requires Parent or pure edge->origin).
	Peers []string
	// Self is this node's index in Peers (ignored when Peers is empty).
	Self int
	// Parent is the parent tier's base URL; empty means no parent.
	Parent string
	// Origin is the default origin base URL — the fallback target when
	// a peer or parent hop fails (must match the proxy's OriginURL).
	Origin string
	// PeerHeaderTimeout bounds how long a peer or parent may take to
	// produce response headers before the fetch is demoted to the
	// origin. Zero means no bound.
	PeerHeaderTimeout time.Duration
}

// Router compiles the node config into the proxy's cluster seam: the
// fixed upstream set (peers and parent, with tier labels) and the
// per-object route function. The route for an object this node does
// not own is its ring owner's URL, for one it owns the parent's, and
// without a parent the origin's (staticHop); the fallback is always
// the object's true origin, so a dead peer or parent demotes the fetch
// rather than failing it.
func (cfg NodeConfig) Router() ([]proxy.Upstream, func(proxy.Meta) proxy.Route, error) {
	if cfg.Origin == "" {
		return nil, nil, fmt.Errorf("%w: empty origin URL", ErrBadCluster)
	}
	if len(cfg.Peers) == 0 && cfg.Parent == "" {
		return nil, nil, fmt.Errorf("%w: no peers and no parent (nothing to route to)", ErrBadCluster)
	}
	var ring *Ring
	if len(cfg.Peers) > 0 {
		if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
			return nil, nil, fmt.Errorf("%w: self index %d outside peers[0,%d)", ErrBadCluster, cfg.Self, len(cfg.Peers))
		}
		var err error
		ring, err = NewRing(len(cfg.Peers), DefaultVirtualNodes)
		if err != nil {
			return nil, nil, err
		}
	}

	var ups []proxy.Upstream
	for i, u := range cfg.Peers {
		if u == "" {
			return nil, nil, fmt.Errorf("%w: empty peer URL at index %d", ErrBadCluster, i)
		}
		if i != cfg.Self {
			ups = append(ups, proxy.Upstream{URL: u, Tier: "peer"})
		}
	}
	if cfg.Parent != "" {
		ups = append(ups, proxy.Upstream{URL: cfg.Parent, Tier: "parent"})
	}

	self, hasParent := cfg.Self, cfg.Parent != ""
	route := func(meta proxy.Meta) proxy.Route {
		owner := self
		if ring != nil {
			owner = ring.Owner(meta.ID)
		}
		var url string
		switch staticHop(self, owner, hasParent) {
		case hopPeer:
			url = cfg.Peers[owner]
		case hopParent:
			url = cfg.Parent
		default:
			return proxy.Route{} // the object's own origin; no demotion needed
		}
		fallback := meta.Origin
		if fallback == "" {
			fallback = cfg.Origin
		}
		return proxy.Route{URL: url, Fallback: fallback, HeaderTimeout: cfg.PeerHeaderTimeout}
	}
	return ups, route, nil
}

// hop is the upstream a node fetches a missed object over.
type hop int

const (
	hopOrigin hop = iota // the constrained origin path
	hopPeer              // the consistent-hash owner of the object
	hopParent            // the parent tier
)

// staticHop is the whole hop policy, peer < parent < origin: prefer the
// nearest copy still inside the cluster. The peer hop is a candidate
// only when the ring owner is another node — forwarding to yourself is
// just a local miss.
func staticHop(self, owner int, hasParent bool) hop {
	switch {
	case owner != self:
		return hopPeer
	case hasParent:
		return hopParent
	default:
		return hopOrigin
	}
}
