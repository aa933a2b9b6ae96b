package core

import (
	"math/rand"
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

// TestEvictionRaisesCacheInflation: an aging cache's L starts at 0,
// rises to the victim's key on an eviction, and moves on nothing else.
func TestEvictionRaisesCacheInflation(t *testing.T) {
	c, err := New(100*units.KB, NewGDS())
	if err != nil {
		t.Fatal(err)
	}
	a := smallObject(1, 100) // fills the cache, H = L + 1/size
	c.Access(a, 0, 1)
	if c.inflation != 0 {
		t.Fatalf("inflation moved without eviction: %v", c.inflation)
	}
	// A smaller object has higher H and evicts part of A, raising L to
	// A's key.
	c.Access(smallObject(2, 10), 0, 2)
	if want := 1 / float64(a.Size); c.inflation != want {
		t.Errorf("inflation = %v after evicting A, want A's key %v", c.inflation, want)
	}
	rng := rand.New(rand.NewSource(3))
	for i := range 500 {
		prev := c.inflation
		id := 3 + rng.Intn(24)
		res := c.Access(smallObject(id, int64(id)), 0, float64(3+i))
		if res.EvictedBytes == 0 && c.inflation != prev || c.inflation < prev {
			t.Fatalf("access %d (evicted %d) moved inflation %v -> %v", i, res.EvictedBytes, prev, c.inflation)
		}
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAgingPolicySharedByCaches: an aging policy is a value like any
// other. Two caches share one GDSP value and take interleaved accesses;
// the second must behave, access for access, as a cache with a value of
// its own: L lives in each cache, so the first's evictions never reach
// the second.
func TestAgingPolicySharedByCaches(t *testing.T) {
	const nObjects = 32
	objs := make([]Object, nObjects)
	for i := range objs {
		objs[i] = smallObject(i, int64(i%8+1)*16)
	}
	shared := NewGDSP()
	first, err := New(256*units.KB, shared)
	if err != nil {
		t.Fatal(err)
	}
	second, err := New(256*units.KB, shared)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := New(256*units.KB, NewGDSP())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for i := range 2000 {
		now := float64(i)
		noise := objs[rng.Intn(nObjects)]
		first.Access(noise, noise.Rate/2, now)
		o := objs[rng.Intn(nObjects)]
		bw := o.Rate * (0.25 + rng.Float64())
		a, b := second.Access(o, bw, now), alone.Access(o, bw, now)
		if a.HitBytes != b.HitBytes || a.CachedAfter != b.CachedAfter || a.EvictedBytes != b.EvictedBytes {
			t.Fatalf("access %d diverged: shared=%+v alone=%+v", i, a, b)
		}
	}
	if first.inflation == 0 || second.inflation != alone.inflation {
		t.Errorf("inflation: first %v (want > 0), second %v, alone %v (want equal)", first.inflation, second.inflation, alone.inflation)
	}
}

func TestGDSAgingAllowsNewContent(t *testing.T) {
	// The point of aging: after enough evictions, L rises so fresh
	// objects can displace once-popular stale ones. Run a phase change
	// and check the cache turns over.
	c, err := New(300*units.KB, NewGDSP())
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
	if u := NewGDS().Utility(AccessStats{Freq: 1}, Object{ID: 1, Size: 0}, 0); u != 0 {
		t.Errorf("zero-size utility = %v, want 0 (the cache adds L)", u)
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
