package core

import (
	"testing"

	"streamcache/internal/units"
)

func TestGDSNames(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{NewGDS(), "GDS"},
		{NewGDSBandwidth(), "GDS-BW"},
		{NewGDSP(), "GDSP-BW"},
	}
	for _, tt := range tests {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestGDSPreferSmallObjects(t *testing.T) {
	// Classic GDS with uniform cost: H = L + 1/size, so smaller objects
	// have higher utility.
	p := NewGDS()
	st := AccessStats{Freq: 1}
	small := smallObject(1, 10)
	large := smallObject(2, 1000)
	if p.Utility(st, small, 0) <= p.Utility(st, large, 0) {
		t.Error("GDS must prefer smaller objects at equal inflation")
	}
}

func TestGDSBandwidthPrefersSlowPaths(t *testing.T) {
	p := NewGDSBandwidth()
	st := AccessStats{Freq: 1}
	obj := smallObject(1, 100)
	slow := p.Utility(st, obj, units.KBps(10))
	fast := p.Utility(st, obj, units.KBps(500))
	if slow <= fast {
		t.Errorf("GDS-BW slow-path utility %v <= fast-path %v", slow, fast)
	}
}

func TestGDSPWeighsPopularity(t *testing.T) {
	p := NewGDSP()
	obj := smallObject(1, 100)
	cold := p.Utility(AccessStats{Freq: 1}, obj, units.KBps(50))
	hot := p.Utility(AccessStats{Freq: 10}, obj, units.KBps(50))
	if hot <= cold {
		t.Errorf("GDSP hot utility %v <= cold %v", hot, cold)
	}
}

func TestGDSInflationRisesOnEviction(t *testing.T) {
	p := NewGDS().(*gdsPolicy)
	if p.inflation != 0 {
		t.Fatalf("initial inflation = %v, want 0", p.inflation)
	}
	p.OnEvict(5)
	p.OnEvict(3) // lower than current L: no change
	if got := p.inflation; got != 5 {
		t.Errorf("inflation = %v, want 5", got)
	}
	p.OnEvict(9)
	if got := p.inflation; got != 9 {
		t.Errorf("inflation = %v, want 9", got)
	}
}

func TestCacheNotifiesEvictionObserver(t *testing.T) {
	p := NewGDS().(*gdsPolicy)
	c, err := New(100*units.KB, p)
	if err != nil {
		t.Fatal(err)
	}
	a := smallObject(1, 100) // fills the cache, H = L + 1/size
	c.Access(a, 0, 1)
	if p.inflation != 0 {
		t.Fatalf("inflation moved without eviction: %v", p.inflation)
	}
	// A smaller object has higher H and evicts part of A, raising L to
	// A's utility.
	b := smallObject(2, 10)
	c.Access(b, 0, 2)
	if p.inflation <= 0 {
		t.Error("inflation did not rise after eviction")
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestGDSAgingAllowsNewContent(t *testing.T) {
	// The point of aging: after enough evictions, L rises so fresh
	// objects can displace once-popular stale ones. Run a phase change
	// and check the cache turns over.
	p := NewGDSP().(*gdsPolicy)
	c, err := New(300*units.KB, p)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: objects 0-2 become very hot.
	now := 0.0
	for round := 0; round < 20; round++ {
		for id := 0; id < 3; id++ {
			now++
			c.Access(smallObject(id, 100), units.KBps(20), now)
		}
	}
	// Phase 2: interest shifts entirely to objects 10-12.
	for round := 0; round < 60; round++ {
		for id := 10; id < 13; id++ {
			now++
			c.Access(smallObject(id, 100), units.KBps(20), now)
		}
	}
	newCached := 0
	for id := 10; id < 13; id++ {
		if c.CachedBytes(id) > 0 {
			newCached++
		}
	}
	if newCached == 0 {
		t.Error("GDSP aging failed: no phase-2 object ever entered the cache")
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestGDSZeroSizeObject(t *testing.T) {
	p := NewGDS().(*gdsPolicy)
	u := p.Utility(AccessStats{Freq: 1}, Object{ID: 1, Size: 0}, 0)
	if u != p.inflation {
		t.Errorf("zero-size utility = %v, want inflation %v", u, p.inflation)
	}
}

func TestPolicyByNameGDSFamily(t *testing.T) {
	for _, name := range []string{"GDS", "GDS-BW", "GDSP"} {
		p, err := PolicyByName(name, 0)
		if err != nil || p == nil {
			t.Errorf("PolicyByName(%q) = (%v, %v)", name, p, err)
		}
	}
}
