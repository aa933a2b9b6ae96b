package core

import (
	"math"
	"strings"
	"testing"

	"streamcache/internal/units"
)

// testObject returns a 100-second object at 100 KB/s (10,240,000 bytes).
func testObject(id int) Object {
	rate := units.KBps(100)
	return Object{ID: id, Duration: 100, Rate: rate, Size: int64(100 * rate), Value: 5}
}

func TestPolicyNames(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{NewIF(), "IF"},
		{NewPB(), "PB"},
		{NewIB(), "IB"},
		{NewPBV(), "PB-V"},
		{NewIBV(), "IB-V"},
		{NewLRU(), "LRU"},
		{NewLFU(), "LFU"},
	}
	for _, tt := range tests {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

// TestPoliciesComparable: every built-in policy, the GreedyDual-Size
// family included, is a comparable value, so two constructions with the
// same parameters are == and differ from any other parameters — the
// identity internal/sim keys its cross-table answers by.
func TestPoliciesComparable(t *testing.T) {
	hybrid := func(e float64) Policy {
		p, err := NewHybrid(e)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	hybridV := func(e float64) Policy {
		p, err := NewHybridV(e)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	builds := []func() Policy{
		NewIF, NewLFU, NewLRU, NewPB, NewIB, NewPBV, NewIBV, NewGDS, NewGDSBandwidth, NewGDSP,
		func() Policy { return hybrid(0.5) }, func() Policy { return hybrid(0.6) },
		func() Policy { return hybridV(0.5) }, func() Policy { return hybridV(0.6) },
	}
	for i, a := range builds {
		for j, b := range builds {
			if got := a() == b(); got != (i == j) {
				t.Errorf("%s == %s is %v, want %v", a().Name(), b().Name(), got, i == j)
			}
		}
	}
}

// TestRankerRanksAlike: policies with one Ranker compute one Utility for
// every access, and the Rankers join exactly the policies whose Utility
// ignores what tells them apart — PB, IB and the hybrids; IF and LFU;
// PB-V and HybridV(1) — so each group of a table that varies only e
// sorts a tape once.
func TestRankerRanksAlike(t *testing.T) {
	must := func(p Policy, err error) Policy {
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	policies := []Policy{
		NewPB(), NewIB(), must(NewHybrid(0.3)), must(NewHybrid(0.7)),
		NewIF(), NewLFU(), NewPBV(), must(NewHybridV(1)), must(NewHybridV(0.5)),
		NewIBV(), NewLRU(), NewGDS(),
	}
	families := []int{0, 0, 0, 0, 1, 1, 2, 2, 3, 4, 5, 6}
	for i, a := range policies {
		for j, b := range policies {
			if same := Ranker(a) == Ranker(b); same != (families[i] == families[j]) {
				t.Errorf("Ranker(%s) == Ranker(%s) is %v, want %v", a.Name(), b.Name(), same, !same)
			}
			if Ranker(a) != Ranker(b) {
				continue
			}
			for _, freq := range []int64{1, 2, 7} {
				for _, bw := range []float64{0, 1e3, units.KBps(50), units.KBps(500)} {
					st, obj := AccessStats{Freq: freq, LastAccess: float64(3 * freq)}, testObject(1)
					if ua, ub := a.Utility(st, obj, bw), b.Utility(st, obj, bw); ua != ub {
						t.Errorf("%s and %s share a Ranker but rank freq %d at %v B/s as %v and %v", a.Name(), b.Name(), freq, bw, ua, ub)
					}
				}
			}
		}
	}
}

func TestIFUtilityIsFrequency(t *testing.T) {
	p := NewIF()
	obj := testObject(1)
	u1 := p.Utility(AccessStats{Freq: 1}, obj, units.KBps(50))
	u9 := p.Utility(AccessStats{Freq: 9}, obj, units.KBps(50))
	if u1 != 1 || u9 != 9 {
		t.Errorf("IF utility = (%v, %v), want (1, 9)", u1, u9)
	}
	// IF ignores bandwidth entirely.
	if p.Utility(AccessStats{Freq: 3}, obj, 1) != p.Utility(AccessStats{Freq: 3}, obj, 1e9) {
		t.Error("IF utility must not depend on bandwidth")
	}
	if got := p.Target(obj, units.KBps(1)); got != obj.Size {
		t.Errorf("IF target = %d, want whole object %d", got, obj.Size)
	}
}

func TestPBTargetIsDeficit(t *testing.T) {
	p := NewPB()
	obj := testObject(1) // rate 100 KB/s, duration 100s
	bw := units.KBps(40)
	// Deficit = (r - b) * T = 60 KB/s * 100 s = 6000 KB.
	want := int64((obj.Rate - bw) * obj.Duration)
	if got := p.Target(obj, bw); got != want {
		t.Errorf("PB target = %d, want %d", got, want)
	}
}

func TestPBDoesNotCacheAbundantBandwidth(t *testing.T) {
	p := NewPB()
	obj := testObject(1)
	// Section 2.4: if r_i <= b_i the object is not cached.
	if got := p.Target(obj, units.KBps(100)); got != 0 {
		t.Errorf("PB target at r=b = %d, want 0", got)
	}
	if got := p.Target(obj, units.KBps(500)); got != 0 {
		t.Errorf("PB target at abundant bw = %d, want 0", got)
	}
}

func TestIBTargetIsWholeObject(t *testing.T) {
	p := NewIB()
	obj := testObject(1)
	for _, bw := range []float64{units.KBps(1), units.KBps(100), units.KBps(1000)} {
		if got := p.Target(obj, bw); got != obj.Size {
			t.Errorf("IB target at bw=%v = %d, want %d", bw, got, obj.Size)
		}
	}
}

func TestBandwidthUtilityPrefersSlowPaths(t *testing.T) {
	// Both PB and IB rank objects by F/b: same frequency, slower path
	// must mean higher utility.
	obj := testObject(1)
	st := AccessStats{Freq: 10}
	for _, p := range []Policy{NewPB(), NewIB()} {
		slow := p.Utility(st, obj, units.KBps(10))
		fast := p.Utility(st, obj, units.KBps(200))
		if slow <= fast {
			t.Errorf("%s: slow-path utility %v <= fast-path %v", p.Name(), slow, fast)
		}
	}
}

func TestNewHybridValidation(t *testing.T) {
	for _, e := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewHybrid(e); err == nil {
			t.Errorf("NewHybrid(%v) accepted", e)
		}
		if _, err := NewHybridV(e); err == nil {
			t.Errorf("NewHybridV(%v) accepted", e)
		}
	}
}

func TestHybridInterpolatesPBAndIB(t *testing.T) {
	obj := testObject(1)
	bw := units.KBps(40)
	h0, err := NewHybrid(0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := NewHybrid(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h0.Target(obj, bw), NewIB().Target(obj, bw); got != want {
		t.Errorf("Hybrid(0) target = %d, want IB's %d", got, want)
	}
	if got, want := h1.Target(obj, bw), NewPB().Target(obj, bw); got != want {
		t.Errorf("Hybrid(1) target = %d, want PB's %d", got, want)
	}
	// Targets are monotonically non-increasing in e.
	prev := int64(math.MaxInt64)
	for _, e := range []float64{0, 0.25, 0.5, 0.75, 1} {
		h, err := NewHybrid(e)
		if err != nil {
			t.Fatal(err)
		}
		got := h.Target(obj, bw)
		if got > prev {
			t.Errorf("Hybrid(%v) target %d > Hybrid target at smaller e (%d)", e, got, prev)
		}
		prev = got
	}
}

func TestPBVUtilityAndTarget(t *testing.T) {
	p := NewPBV()
	obj := testObject(1)
	bw := units.KBps(40)
	deficit := (obj.Rate - bw) * obj.Duration
	st := AccessStats{Freq: 4}
	wantU := 4 * obj.Value / deficit
	if got := p.Utility(st, obj, bw); math.Abs(got-wantU) > 1e-12 {
		t.Errorf("PB-V utility = %v, want %v", got, wantU)
	}
	if got := p.Target(obj, bw); got != int64(deficit) {
		t.Errorf("PB-V target = %d, want %d", got, int64(deficit))
	}
	// Abundant bandwidth: no caching, zero utility.
	if p.Target(obj, units.KBps(200)) != 0 {
		t.Error("PB-V target with abundant bandwidth != 0")
	}
	if p.Utility(st, obj, units.KBps(200)) != 0 {
		t.Error("PB-V utility with abundant bandwidth != 0")
	}

	// PB-V is the value family at e=1. Section 2.6's formulas, written
	// out with no e in them, must agree with it to the bit over a grid
	// of objects, bandwidths and frequencies: figures 10-12 rank
	// evictions on these floats.
	for id := 0; id < 40; id++ {
		obj := Object{ID: id, Duration: 30 + 97.3*float64(id), Rate: units.KBps(48), Value: 1 + 0.23*float64(id)}
		obj.Size = int64(obj.Duration * obj.Rate)
		for _, bw := range []float64{0, 1, units.KBps(7.3), units.KBps(47.9), units.KBps(48), units.KBps(311)} {
			deficit := float64(obj.Size) - obj.Duration*effBW(bw)
			wantU, wantT := 0.0, int64(0)
			if deficit > 0 {
				wantU, wantT = 3*obj.Value/deficit, min(int64(math.Ceil(deficit)), obj.Size)
			}
			if u, tg := p.Utility(AccessStats{Freq: 3}, obj, bw), p.Target(obj, bw); u != wantU || tg != wantT {
				t.Fatalf("object %d at bw %v: utility %v target %d, Section 2.6 gives %v and %d", id, bw, u, tg, wantU, wantT)
			}
		}
	}
}

func TestIBVUtilityFavors(t *testing.T) {
	// IB-V prefers lower bandwidth, higher value, smaller size.
	p := NewIBV()
	st := AccessStats{Freq: 2}
	base := testObject(1)
	bw := units.KBps(50)
	u := p.Utility(st, base, bw)
	if u2 := p.Utility(st, base, bw/2); u2 <= u {
		t.Error("IB-V must prefer lower bandwidth")
	}
	richer := base
	richer.Value = 10
	if u2 := p.Utility(st, richer, bw); u2 <= u {
		t.Error("IB-V must prefer higher value")
	}
	smaller := base
	smaller.Size = base.Size / 2
	if u2 := p.Utility(st, smaller, bw); u2 <= u {
		t.Error("IB-V must prefer smaller objects")
	}
	if got := p.Target(base, bw); got != base.Size {
		t.Errorf("IB-V target = %d, want whole object", got)
	}
}

func TestHybridVInterpolates(t *testing.T) {
	obj := testObject(1)
	bw := units.KBps(40)
	h1, err := NewHybridV(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h1.Target(obj, bw), NewPBV().Target(obj, bw); got != want {
		t.Errorf("HybridV(1) target = %d, want PB-V's %d", got, want)
	}
	h0, err := NewHybridV(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := h0.Target(obj, bw); got != obj.Size {
		t.Errorf("HybridV(0) target = %d, want whole object %d", got, obj.Size)
	}
}

func TestLRUUtilityIsRecency(t *testing.T) {
	p := NewLRU()
	obj := testObject(1)
	old := p.Utility(AccessStats{Freq: 100, LastAccess: 10}, obj, 1)
	fresh := p.Utility(AccessStats{Freq: 1, LastAccess: 99}, obj, 1)
	if fresh <= old {
		t.Error("LRU must rank recent accesses above frequent-but-old ones")
	}
}

func TestPoliciesHandleZeroBandwidth(t *testing.T) {
	// A zero/NaN estimate must not produce NaN/Inf utilities or negative
	// targets.
	obj := testObject(1)
	st := AccessStats{Freq: 5}
	for _, p := range []Policy{NewIF(), NewPB(), NewIB(), NewPBV(), NewIBV(), NewLRU(), NewLFU()} {
		for _, bw := range []float64{0, -1, math.NaN()} {
			u := p.Utility(st, obj, bw)
			if math.IsNaN(u) || math.IsInf(u, 0) {
				t.Errorf("%s: utility(%v) = %v", p.Name(), bw, u)
			}
			tgt := p.Target(obj, bw)
			if tgt < 0 || tgt > obj.Size {
				t.Errorf("%s: target(%v) = %d outside [0, %d]", p.Name(), bw, tgt, obj.Size)
			}
		}
	}
}

// TestPolicyByName: every name it knows builds a value, so two builds
// are == (internal/sim refuses a policy that cannot key a map), and the
// GreedyDual-Size family, and only it, ages.
func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"IF", "PB", "IB", "PB-V", "PBV", "IB-V", "IBV", "LRU", "LFU",
		"HYBRID", "Hybrid", "HYBRID-V", "HybridV", "GDS", "GDS-BW", "GDSBW", "GDSP", "GDSP-BW"} {
		p, err := PolicyByName(name, 0.5)
		if err != nil {
			t.Errorf("PolicyByName(%q) error: %v", name, err)
			continue
		}
		if again, _ := PolicyByName(name, 0.5); p != again {
			t.Errorf("PolicyByName(%q) built twice: %#v != %#v", name, p, again)
		}
		if ages := strings.HasPrefix(name, "GDS"); Ages(p) != ages {
			t.Errorf("Ages(%s) = %v, want %v", name, Ages(p), ages)
		}
	}
	for _, p := range []Policy{NewGDS(), NewGDSBandwidth(), NewGDSP()} {
		if !Ages(p) {
			t.Errorf("Ages(%s) = false: the cache would not age a GreedyDual-Size policy", p.Name())
		}
	}
	if _, err := PolicyByName("NOPE", 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := PolicyByName("HYBRID", 7); err == nil {
		t.Error("out-of-range e accepted via PolicyByName")
	}
}

func TestStartupDelayFormula(t *testing.T) {
	obj := testObject(1) // S = 10240000 bytes, T = 100 s, r = 102400 B/s
	bw := units.KBps(50) // 51200 B/s
	// No cache: D = (S - T*b)/b = (10240000 - 5120000)/51200 = 100 s.
	if got := StartupDelay(obj, 0, bw); math.Abs(got-100) > 1e-9 {
		t.Errorf("StartupDelay(no cache) = %v, want 100", got)
	}
	// Cache exactly the deficit: delay 0.
	deficit := int64(float64(obj.Size) - obj.Duration*bw)
	if got := StartupDelay(obj, deficit, bw); got != 0 {
		t.Errorf("StartupDelay(full deficit) = %v, want 0", got)
	}
	// Half the deficit: delay halves.
	if got := StartupDelay(obj, deficit/2, bw); math.Abs(got-50) > 1e-6 {
		t.Errorf("StartupDelay(half deficit) = %v, want 50", got)
	}
	// Abundant bandwidth: no delay regardless of cache.
	if got := StartupDelay(obj, 0, units.KBps(200)); got != 0 {
		t.Errorf("StartupDelay(abundant) = %v, want 0", got)
	}
}

func TestStreamQualityFormula(t *testing.T) {
	obj := testObject(1)
	half := units.KBps(50)
	if got := StreamQuality(obj, 0, half); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("StreamQuality(no cache, half bw) = %v, want 0.5", got)
	}
	if got := StreamQuality(obj, obj.Size, 0); got != 1 {
		t.Errorf("StreamQuality(fully cached) = %v, want 1", got)
	}
	if got := StreamQuality(obj, 0, units.KBps(300)); got != 1 {
		t.Errorf("StreamQuality(abundant) = %v, want 1 (capped)", got)
	}
	if got := StreamQuality(Object{Size: 0}, 0, 0); got != 1 {
		t.Errorf("StreamQuality(empty object) = %v, want 1", got)
	}
}

func TestImmediatelyServable(t *testing.T) {
	obj := testObject(1)
	bw := units.KBps(50)
	deficit := int64(float64(obj.Size) - obj.Duration*bw)
	if ImmediatelyServable(obj, deficit-1024, bw) {
		t.Error("servable with insufficient prefix")
	}
	if !ImmediatelyServable(obj, deficit, bw) {
		t.Error("not servable with exact deficit")
	}
	if !ImmediatelyServable(obj, 0, units.KBps(150)) {
		t.Error("not servable with abundant bandwidth")
	}
}
