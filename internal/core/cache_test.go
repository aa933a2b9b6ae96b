package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"streamcache/internal/units"
)

// smallObject returns an object with the given size in KB, 100s duration.
func smallObject(id int, sizeKB int64) Object {
	size := sizeKB * units.KB
	return Object{ID: id, Duration: 100, Rate: float64(size) / 100, Size: size, Value: 1}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, NewIF()); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(100, nil); err == nil {
		t.Error("nil policy accepted")
	}
	c, err := New(0, NewIF())
	if err != nil {
		t.Fatalf("zero capacity rejected: %v", err)
	}
	if c.Capacity() != 0 {
		t.Errorf("Capacity() = %d, want 0", c.Capacity())
	}
}

func TestAccessMissThenHit(t *testing.T) {
	c, err := New(1000*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	obj := smallObject(1, 100)
	res := c.Access(obj, 0, 1)
	if res.HitBytes != 0 {
		t.Errorf("first access HitBytes = %d, want 0", res.HitBytes)
	}
	if res.CachedAfter != obj.Size {
		t.Errorf("CachedAfter = %d, want %d (whole object fits)", res.CachedAfter, obj.Size)
	}
	res = c.Access(obj, 0, 2)
	if res.HitBytes != obj.Size {
		t.Errorf("second access HitBytes = %d, want %d", res.HitBytes, obj.Size)
	}
	if c.ents[1].freq != 2 {
		t.Errorf("freq = %d, want 2", c.ents[1].freq)
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestZeroCapacityNeverCaches(t *testing.T) {
	c, err := New(0, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	obj := smallObject(1, 10)
	for i := 0; i < 5; i++ {
		res := c.Access(obj, 0, float64(i))
		if res.CachedAfter != 0 || res.HitBytes != 0 {
			t.Fatalf("zero-capacity cache stored bytes: %+v", res)
		}
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Errorf("Used/Len = %d/%d, want 0/0", c.Used(), c.Len())
	}
}

func TestUsedNeverExceedsCapacity(t *testing.T) {
	c, err := New(250*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Access(smallObject(i, 100), 0, float64(i))
		if c.Used() > c.Capacity() {
			t.Fatalf("Used %d > Capacity %d", c.Used(), c.Capacity())
		}
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestEvictionPrefersLowUtility(t *testing.T) {
	// Capacity for one object only. Object A accessed 3 times, object B
	// once: B must not evict A.
	c, err := New(100*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	a, b := smallObject(1, 100), smallObject(2, 100)
	c.Access(a, 0, 1)
	c.Access(a, 0, 2)
	c.Access(a, 0, 3)
	res := c.Access(b, 0, 4)
	if res.CachedAfter != 0 {
		t.Errorf("cold object displaced hot object: CachedAfter = %d", res.CachedAfter)
	}
	if c.CachedBytes(1) != a.Size {
		t.Errorf("hot object lost bytes: %d", c.CachedBytes(1))
	}
	// After B becomes hotter (4 accesses total), it evicts A.
	for i := 5; i <= 8; i++ {
		c.Access(b, 0, float64(i))
	}
	if c.CachedBytes(2) == 0 {
		t.Error("hot object B never admitted")
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartialEvictionShrinksVictim(t *testing.T) {
	// PB caching: victim loses only the bytes needed, not its whole
	// prefix.
	c, err := New(150*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	a := smallObject(1, 100)
	b := smallObject(2, 100)
	c.Access(a, 0, 1) // A fully cached (100 KB), 50 KB free
	c.Access(b, 0, 2)
	c.Access(b, 0, 3) // B hotter: wants 100 KB, needs 50 KB from A
	if got := c.CachedBytes(2); got != b.Size {
		t.Errorf("B cached %d, want %d", got, b.Size)
	}
	if got := c.CachedBytes(1); got != 50*units.KB {
		t.Errorf("A cached %d after partial eviction, want 50 KB", got)
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWholeObjectEvictionRemovesVictim(t *testing.T) {
	c, err := New(150*units.KB, NewIF(), WithWholeObjectEviction(true))
	if err != nil {
		t.Fatal(err)
	}
	a := smallObject(1, 100)
	b := smallObject(2, 100)
	c.Access(a, 0, 1)
	c.Access(b, 0, 2)
	c.Access(b, 0, 3)
	if got := c.CachedBytes(1); got != 0 {
		t.Errorf("A cached %d after whole-object eviction, want 0", got)
	}
	if got := c.CachedBytes(2); got != b.Size {
		t.Errorf("B cached %d, want %d", got, b.Size)
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPBShrinksWhenBandwidthImproves(t *testing.T) {
	c, err := New(1000*units.KB, NewPB())
	if err != nil {
		t.Fatal(err)
	}
	obj := smallObject(1, 100) // rate = 1 KB/s... actually size/duration
	lowBW := obj.Rate / 2
	c.Access(obj, lowBW, 1)
	wantLow := int64((obj.Rate - lowBW) * obj.Duration)
	if got := c.CachedBytes(1); got != wantLow {
		t.Fatalf("cached %d at low bw, want %d", got, wantLow)
	}
	// Bandwidth recovers: r <= b, PB's target drops to 0 and the prefix
	// is released.
	c.Access(obj, obj.Rate*2, 2)
	if got := c.CachedBytes(1); got != 0 {
		t.Errorf("cached %d after bandwidth recovery, want 0", got)
	}
	if c.Used() != 0 {
		t.Errorf("Used = %d, want 0", c.Used())
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPBCachesOnlyDeficit(t *testing.T) {
	c, err := New(1000*units.KB, NewPB())
	if err != nil {
		t.Fatal(err)
	}
	obj := smallObject(1, 400)
	bw := obj.Rate * 0.75 // deficit = 25% of size
	c.Access(obj, bw, 1)
	want := int64((obj.Rate - bw) * obj.Duration)
	if got := c.CachedBytes(1); got != want {
		t.Errorf("PB cached %d, want deficit %d", got, want)
	}
	if got := c.CachedBytes(1); got >= obj.Size {
		t.Error("PB cached the whole object")
	}
}

func TestIBCachesWholeObject(t *testing.T) {
	c, err := New(1000*units.KB, NewIB())
	if err != nil {
		t.Fatal(err)
	}
	obj := smallObject(1, 400)
	c.Access(obj, obj.Rate*0.75, 1)
	if got := c.CachedBytes(1); got != obj.Size {
		t.Errorf("IB cached %d, want whole object %d", got, obj.Size)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c, err := New(200*units.KB, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := smallObject(1, 100), smallObject(2, 100), smallObject(3, 100)
	c.Access(a, 0, 1)
	c.Access(b, 0, 2)
	c.Access(a, 0, 3) // refresh A
	c.Access(d, 0, 4) // must evict B (oldest)
	if c.CachedBytes(2) != 0 {
		t.Errorf("LRU kept the oldest entry B (%d bytes)", c.CachedBytes(2))
	}
	if c.CachedBytes(1) == 0 {
		t.Error("LRU evicted the recently used entry A")
	}
	if c.CachedBytes(3) == 0 {
		t.Error("LRU did not admit the new entry")
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestObjectLargerThanCache(t *testing.T) {
	c, err := New(50*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	obj := smallObject(1, 100)
	res := c.Access(obj, 0, 1)
	// The cache can hold only half the object; it caches what it can.
	if res.CachedAfter != 50*units.KB {
		t.Errorf("CachedAfter = %d, want 50 KB", res.CachedAfter)
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestContentsSortedByUtility(t *testing.T) {
	c, err := New(1000*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	a, b := smallObject(1, 10), smallObject(2, 10)
	c.Access(a, 0, 1)
	c.Access(b, 0, 2)
	c.Access(b, 0, 3)
	contents := c.Contents()
	if len(contents) != 2 {
		t.Fatalf("len(Contents) = %d, want 2", len(contents))
	}
	if contents[0].Object.ID != 2 {
		t.Errorf("hottest object = %d, want 2", contents[0].Object.ID)
	}
	if contents[0].Utility < contents[1].Utility {
		t.Error("Contents not sorted by descending utility")
	}
}

func TestStatsForUnknownObject(t *testing.T) {
	c, err := New(100, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ents) > 42 && c.ents[42] != (entry{}) {
		t.Errorf("entry of an unknown object = %+v, want zero", c.ents[42])
	}
	if c.CachedBytes(42) != 0 {
		t.Error("CachedBytes(unknown) != 0")
	}
}

func TestPolicyAccessor(t *testing.T) {
	p := NewPB()
	c, err := New(100, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy() != p {
		t.Error("Policy() did not return the configured policy")
	}
}

func TestFrequencyTrackedForUncachedObjects(t *testing.T) {
	// Section 2.4's replacement needs frequency estimates even for
	// objects currently outside the cache.
	c, err := New(100*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := smallObject(1, 100), smallObject(2, 100)
	c.Access(hot, 0, 1)
	c.Access(hot, 0, 2)
	// cold rejected (utility 1 < 2) but its stats must accumulate.
	c.Access(cold, 0, 3)
	c.Access(cold, 0, 4)
	c.Access(cold, 0, 5)
	if got := c.ents[2].freq; got != 3 {
		t.Errorf("uncached object freq = %d, want 3", got)
	}
	// Now cold (freq 3) must displace hot (freq 2).
	if got := c.CachedBytes(2); got != cold.Size {
		t.Errorf("cold object cached %d, want %d after overtaking", got, cold.Size)
	}
}

func TestAccessInvariantsProperty(t *testing.T) {
	policies := []func() Policy{
		NewIF, NewPB, NewIB, NewPBV, NewIBV, NewLRU, NewLFU,
	}
	f := func(seed int64, policyIdx uint8, capKB uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		p := policies[int(policyIdx)%len(policies)]()
		c, err := New(int64(capKB)*units.KB, p)
		if err != nil {
			return false
		}
		objs := make([]Object, 20)
		for i := range objs {
			objs[i] = smallObject(i, int64(rng.Intn(200)+1))
		}
		for step := 0; step < 300; step++ {
			obj := objs[rng.Intn(len(objs))]
			bw := float64(rng.Intn(int(obj.Rate*2)) + 1)
			res := c.Access(obj, bw, float64(step))
			if res.HitBytes < 0 || res.CachedAfter < 0 || res.CachedAfter > obj.Size {
				return false
			}
			if res.Target < 0 || res.Target > obj.Size {
				return false
			}
		}
		return c.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHitBytesNeverExceedPriorState(t *testing.T) {
	// HitBytes must reflect the prefix before this access mutates state.
	c, err := New(500*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	obj := smallObject(1, 100)
	res1 := c.Access(obj, 0, 1)
	if res1.HitBytes != 0 {
		t.Errorf("first access HitBytes = %d, want 0", res1.HitBytes)
	}
	res2 := c.Access(obj, 0, 2)
	if res2.HitBytes != res1.CachedAfter {
		t.Errorf("second access HitBytes = %d, want %d", res2.HitBytes, res1.CachedAfter)
	}
}

func TestVictimsReported(t *testing.T) {
	c, err := New(150*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	a, b := smallObject(1, 100), smallObject(2, 100)
	c.Access(a, 0, 1)
	c.Access(b, 0, 2)
	res := c.Access(b, 0, 3) // B (freq 2) takes 50 KB from A (freq 1)
	if len(res.Victims) != 1 {
		t.Fatalf("Victims = %v, want one entry", res.Victims)
	}
	if res.Victims[0].ID != 1 || res.Victims[0].Bytes != 50*units.KB {
		t.Errorf("Victim = %+v, want {1, 50KB}", res.Victims[0])
	}
	if res.EvictedBytes != 50*units.KB {
		t.Errorf("EvictedBytes = %d, want 50KB", res.EvictedBytes)
	}
}

func TestVictimsEmptyWithoutEviction(t *testing.T) {
	c, err := New(500*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	res := c.Access(smallObject(1, 100), 0, 1)
	if len(res.Victims) != 0 || res.EvictedBytes != 0 {
		t.Errorf("unexpected evictions: %+v", res)
	}
}

func TestTruncate(t *testing.T) {
	c, err := New(500*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	obj := smallObject(1, 100)
	c.Access(obj, 0, 1)
	c.Truncate(1, 30*units.KB)
	if got := c.CachedBytes(1); got != 30*units.KB {
		t.Errorf("CachedBytes = %d, want 30KB", got)
	}
	if got := c.Used(); got != 30*units.KB {
		t.Errorf("Used = %d, want 30KB", got)
	}
	// Truncating to a larger size is a no-op.
	c.Truncate(1, 90*units.KB)
	if got := c.CachedBytes(1); got != 30*units.KB {
		t.Errorf("CachedBytes after grow-truncate = %d, want 30KB", got)
	}
	// Truncate to zero removes the entry.
	c.Truncate(1, 0)
	if c.Len() != 0 || c.Used() != 0 {
		t.Errorf("Len/Used = %d/%d after zero truncate, want 0/0", c.Len(), c.Used())
	}
	// Unknown object and negative size are harmless.
	c.Truncate(99, 10)
	c.Truncate(1, -5)
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

// TestResetMatchesFresh drives a pooled-and-Reset cache and a freshly
// constructed one through the same randomized access sequence and
// requires identical observable behavior — the contract that lets the
// sweep engine reuse cache tables across runs without perturbing
// results. The GreedyDual case dirties the aging value L too.
func TestResetMatchesFresh(t *testing.T) {
	const nObjects = 48
	objs := make([]Object, nObjects)
	for i := range objs {
		objs[i] = smallObject(i, int64(i%12+1)*16)
	}
	for _, tc := range []struct{ dirty, into Policy }{{NewIB(), NewLRU()}, {NewGDSP(), NewGDS()}} {
		// Dirty a cache under one policy, then Reset it into the test config.
		pooled, err := New(512*units.KB, tc.dirty, WithExpectedObjects(nObjects))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 300; i++ {
			o := objs[rng.Intn(nObjects)]
			pooled.Access(o, o.Rate/2, float64(i))
		}
		if err := pooled.Reset(256*units.KB, tc.into, WithExpectedObjects(nObjects)); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(256*units.KB, tc.into, WithExpectedObjects(nObjects))
		if err != nil {
			t.Fatal(err)
		}

		if pooled.Used() != 0 || pooled.Len() != 0 || pooled.inflation != 0 {
			t.Fatalf("%s after Reset: used=%d len=%d inflation=%v, want 0/0/0", tc.into.Name(), pooled.Used(), pooled.Len(), pooled.inflation)
		}
		rng = rand.New(rand.NewSource(22))
		for i := 0; i < 600; i++ {
			o := objs[rng.Intn(nObjects)]
			bw := o.Rate * (0.25 + rng.Float64())
			now := float64(i)
			a := pooled.Access(o, bw, now)
			b := fresh.Access(o, bw, now)
			if a.HitBytes != b.HitBytes || a.CachedAfter != b.CachedAfter ||
				a.Target != b.Target || a.EvictedBytes != b.EvictedBytes {
				t.Fatalf("%s: access %d diverged: reset=%+v fresh=%+v", tc.into.Name(), i, a, b)
			}
		}
		if pooled.Used() != fresh.Used() || pooled.Len() != fresh.Len() || pooled.inflation != fresh.inflation {
			t.Fatalf("%s: final state diverged: reset used=%d len=%d L=%v, fresh used=%d len=%d L=%v", tc.into.Name(),
				pooled.Used(), pooled.Len(), pooled.inflation, fresh.Used(), fresh.Len(), fresh.inflation)
		}
		if err := pooled.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestResetValidation(t *testing.T) {
	c, err := New(units.MB, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(-1, NewLRU()); err == nil {
		t.Error("negative capacity accepted")
	}
	if err := c.Reset(units.MB, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

// TestResetClearsWholeEviction ensures option state does not leak from
// the pre-Reset configuration.
func TestResetClearsWholeEviction(t *testing.T) {
	c, err := New(96*units.KB, NewLRU(), WithWholeObjectEviction(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(96*units.KB, NewLRU()); err != nil {
		t.Fatal(err)
	}
	// With byte-granular (default) eviction, admitting a second object
	// shrinks the victim instead of removing it entirely.
	c.Access(smallObject(0, 64), 1, 0)
	c.Access(smallObject(1, 64), 1, 1)
	c.Access(smallObject(1, 64), 1, 2)
	if got := c.CachedBytes(0); got == 0 {
		t.Error("whole-object eviction leaked through Reset: victim fully removed")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAccessWithTargetMatchesAccess drives twin caches through one
// random request sequence, one through Access and the other through
// AccessWithTarget with the policy's own target, for every built-in
// policy with byte-granular and whole-object eviction, and requires
// every result, victim list, snapshot and invariant to agree after
// every step: the simulator's oracle loops call AccessWithTarget with
// targets computed once per run, the proxy calls Access.
func TestAccessWithTargetMatchesAccess(t *testing.T) {
	names := []string{"IF", "PB", "IB", "PB-V", "IB-V", "LRU", "LFU", "HYBRID", "HYBRID-V", "GDS", "GDS-BW", "GDSP"}
	const nObjects = 32
	for _, name := range names {
		for _, whole := range []bool{false, true} {
			for seed := range int64(3) {
				p, err := PolicyByName(name, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				objs := make([]Object, nObjects)
				for i := range objs {
					objs[i] = smallObject(i, int64(rng.Intn(256)+1))
				}
				capacity := int64(rng.Intn(2048)+64) * units.KB
				viaAccess, err := New(capacity, p, WithWholeObjectEviction(whole))
				if err != nil {
					t.Fatal(err)
				}
				viaTarget, err := New(capacity, p, WithWholeObjectEviction(whole))
				if err != nil {
					t.Fatal(err)
				}
				for step := range 400 {
					obj := objs[rng.Intn(nObjects)]
					bw := obj.Rate * 2 * rng.Float64()
					now := float64(step)
					a := viaAccess.Access(obj, bw, now)
					av := slices.Clone(a.Victims)
					var b AccessResult
					b.HitBytes, b.CachedAfter, b.Target, b.EvictedBytes, b.Victims = viaTarget.AccessWithTarget(obj, p.Target(obj, bw), bw, now)
					if a.HitBytes != b.HitBytes || a.CachedAfter != b.CachedAfter || a.Target != b.Target ||
						a.EvictedBytes != b.EvictedBytes || !slices.Equal(av, b.Victims) {
						t.Fatalf("%s whole=%v seed=%d step %d: Access %+v (victims %v) != AccessWithTarget %+v",
							name, whole, seed, step, a, av, b)
					}
					if !slices.Equal(viaAccess.Contents(), viaTarget.Contents()) {
						t.Fatalf("%s whole=%v seed=%d step %d: contents diverged", name, whole, seed, step)
					}
					for _, c := range []*Cache{viaAccess, viaTarget} {
						if err := c.checkInvariants(); err != nil {
							t.Fatalf("%s whole=%v seed=%d step %d: %v", name, whole, seed, step, err)
						}
					}
				}
			}
		}
	}
}

// TestEntryStays40Bytes pins the hot entry every access reads and
// writes: the Object belongs in the cold table, not back in the entry.
func TestEntryStays40Bytes(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 40 {
		t.Errorf("entry is %d bytes, want <= 40", size)
	}
}

// TestEqualUtilityEvictsLeastRecentlyRequested: between two entries of
// one utility the one requested less recently goes first, and a hit
// counts as a request, not only the insertion.
func TestEqualUtilityEvictsLeastRecentlyRequested(t *testing.T) {
	c, err := New(200*units.KB, NewIF())
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := smallObject(1, 100), smallObject(2, 100), smallObject(3, 100)
	c.Access(a, 0, 1)
	c.Access(b, 0, 2)
	c.Access(b, 0, 3) // b: two requests, the last at 3
	c.Access(a, 0, 4) // a: two requests, the last at 4
	for now := 5.0; now <= 7; now++ {
		c.Access(d, 0, now) // d's third request outranks frequency 2
	}
	if c.CachedBytes(2) != 0 || c.CachedBytes(1) != a.Size {
		t.Errorf("cached a=%d b=%d; want b (last request at 3) evicted before a (at 4)", c.CachedBytes(1), c.CachedBytes(2))
	}
	if c.CachedBytes(3) != d.Size {
		t.Errorf("d cached %d bytes, want %d", c.CachedBytes(3), d.Size)
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}
