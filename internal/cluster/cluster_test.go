package cluster

import (
	"testing"

	"streamcache/internal/proxy"
)

func TestNodeConfigValidation(t *testing.T) {
	peers := []string{"http://a", "http://b"}
	tests := []struct {
		name string
		cfg  NodeConfig
	}{
		{"empty origin", NodeConfig{Peers: peers}},
		{"nothing to route to", NodeConfig{Origin: "http://o"}},
		{"self out of range", NodeConfig{Peers: peers, Self: 2, Origin: "http://o"}},
		{"negative self", NodeConfig{Peers: peers, Self: -1, Origin: "http://o"}},
		{"empty peer URL", NodeConfig{Peers: []string{"http://a", ""}, Origin: "http://o"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := tt.cfg.Router(); err == nil {
				t.Error("invalid node config accepted")
			}
		})
	}
}

func TestNodeConfigUpstreams(t *testing.T) {
	cfg := NodeConfig{
		Peers:  []string{"http://e0", "http://e1", "http://e2"},
		Self:   1,
		Parent: "http://parent",
		Origin: "http://origin",
	}
	ups, route, err := cfg.Router()
	if err != nil {
		t.Fatal(err)
	}
	if route == nil {
		t.Fatal("nil route function")
	}
	want := []proxy.Upstream{
		{URL: "http://e0", Tier: "peer"},
		{URL: "http://e2", Tier: "peer"},
		{URL: "http://parent", Tier: "parent"},
	}
	if len(ups) != len(want) {
		t.Fatalf("%d upstreams, want %d: %v", len(ups), len(want), ups)
	}
	for i := range want {
		if ups[i] != want[i] {
			t.Errorf("upstream %d = %+v, want %+v", i, ups[i], want[i])
		}
	}
}

// TestRouterMatchesRingPlacement: the compiled route function must
// agree byte-for-byte with the Ring the simulator consults — same
// owner for every object, peer URL by ring position, self-owned
// objects descending to the parent (or origin without one). This is
// the sim/live placement-agreement seam.
func TestRouterMatchesRingPlacement(t *testing.T) {
	peers := []string{"http://e0", "http://e1", "http://e2", "http://e3"}
	ring, err := NewRing(len(peers), 0)
	if err != nil {
		t.Fatal(err)
	}
	for self := 0; self < len(peers); self++ {
		cfg := NodeConfig{Peers: peers, Self: self, Parent: "http://parent", Origin: "http://origin"}
		_, route, err := cfg.Router()
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 5000; id++ {
			owner := ring.Owner(id)
			rt := route(proxy.Meta{ID: id})
			switch {
			case owner == self:
				if rt.URL != "http://parent" {
					t.Fatalf("self=%d id=%d (self-owned): routed to %q, want parent", self, id, rt.URL)
				}
			default:
				if rt.URL != peers[owner] {
					t.Fatalf("self=%d id=%d: routed to %q, want ring owner %d (%s)", self, id, rt.URL, owner, peers[owner])
				}
			}
			if rt.URL != "" && rt.Fallback != "http://origin" {
				t.Fatalf("self=%d id=%d: fallback %q, want the origin", self, id, rt.Fallback)
			}
		}
	}
}

// TestRouterWithoutParent: a flat peered cluster routes self-owned
// objects straight to the origin (the zero Route), remote objects to
// their owner.
func TestRouterWithoutParent(t *testing.T) {
	peers := []string{"http://e0", "http://e1"}
	ring, err := NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NodeConfig{Peers: peers, Self: 0, Origin: "http://origin"}
	_, route, err := cfg.Router()
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2000; id++ {
		rt := route(proxy.Meta{ID: id})
		if ring.Owner(id) == 0 {
			if rt != (proxy.Route{}) {
				t.Fatalf("id %d self-owned: route %+v, want zero Route (own origin)", id, rt)
			}
		} else if rt.URL != "http://e1" {
			t.Fatalf("id %d: routed to %q, want the owning peer", id, rt.URL)
		}
	}
}

// TestRouterPerObjectOrigin: an object with its own origin URL must
// keep that origin as the demotion target.
func TestRouterPerObjectOrigin(t *testing.T) {
	cfg := NodeConfig{
		Peers:  []string{"http://e0", "http://e1"},
		Self:   0,
		Origin: "http://origin",
	}
	_, route, err := cfg.Router()
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Find a remote-owned id so the route carries a fallback at all.
	id := 0
	for ; ring.Owner(id) == 0; id++ {
	}
	rt := route(proxy.Meta{ID: id, Origin: "http://special"})
	if rt.Fallback != "http://special" {
		t.Errorf("fallback %q, want the object's own origin", rt.Fallback)
	}
}

func TestNilTopologyStaticPreference(t *testing.T) {
	if got := staticHop(0, 1, true); got != hopPeer {
		t.Errorf("remote owner with parent: %v, want peer", got)
	}
	if got := staticHop(0, 1, false); got != hopPeer {
		t.Errorf("remote owner without parent: %v, want peer", got)
	}
	if got := staticHop(0, 0, true); got != hopParent {
		t.Errorf("local owner with parent: %v, want parent", got)
	}
	if got := staticHop(0, 0, false); got != hopOrigin {
		t.Errorf("local owner without parent: %v, want origin", got)
	}
}
