package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// modelCache is core.Cache's specification: the same admission and
// eviction rules over a map, with no heap, no dense tables and no
// scratch. An access counts the request, keys the object at its
// utility (plus L under an aging policy), refreshes a cached object's
// key, then releases what exceeds the policy's target or frees room
// for what the target still wants by evicting, cheapest first, the
// cached objects whose key is strictly below the requester's — the
// cheapest being the lowest key, then the oldest last request — down
// to the bytes it lacks (whole objects under whole-object eviction),
// raising L to each aging victim's key, and grants what then fits.
type modelCache struct {
	capacity, used int64
	policy         Policy
	aging, whole   bool
	inflation      float64
	ents           map[int]*modelEntry // every object requested; bytes > 0 ⇔ cached
}

type modelEntry struct {
	obj     Object
	bytes   int64
	utility float64
	freq    int64
	last    float64
}

// access is Cache.Access.
func (m *modelCache) access(obj Object, bw, now float64) AccessResult {
	e := m.ents[obj.ID]
	if e == nil {
		e = &modelEntry{}
		m.ents[obj.ID] = e
	}
	e.freq++
	e.last = now
	r := AccessResult{HitBytes: e.bytes, Target: max(min(m.policy.Target(obj, bw), obj.Size), 0)}
	utility := m.policy.Utility(AccessStats{Freq: e.freq, LastAccess: now}, obj, bw)
	if m.aging {
		utility += m.inflation
	}
	if e.bytes > 0 {
		e.utility = utility
	}
	switch {
	case e.bytes > r.Target:
		m.release(e, e.bytes-r.Target)
	case r.Target > e.bytes:
		need := r.Target - e.bytes
		for m.capacity-m.used < need {
			v := m.cheapest()
			// The tie rule: a victim's key must be strictly below the
			// requester's; an equal key keeps its bytes.
			if v == nil || v == e || v.utility >= utility {
				break
			}
			take := v.bytes
			if !m.whole {
				take = min(take, need-(m.capacity-m.used))
			}
			r.Victims = append(r.Victims, Victim{ID: v.obj.ID, Bytes: take})
			r.EvictedBytes += take
			if m.aging {
				m.inflation = max(m.inflation, v.utility)
			}
			m.release(v, take)
		}
		if grant := min(need, m.capacity-m.used); grant > 0 {
			if e.bytes == 0 {
				e.obj, e.utility = obj, utility
			}
			e.bytes += grant
			m.used += grant
		}
	}
	r.CachedAfter = e.bytes
	return r
}

// cheapest is the cached entry that evicts first, or nil.
func (m *modelCache) cheapest() *modelEntry {
	var least *modelEntry
	for _, e := range m.ents {
		if e.bytes > 0 && (least == nil || e.utility < least.utility || e.utility == least.utility && e.last < least.last) {
			least = e
		}
	}
	return least
}

func (m *modelCache) release(e *modelEntry, bytes int64) {
	e.bytes -= bytes
	m.used -= bytes
}

// truncate is Cache.Truncate.
func (m *modelCache) truncate(id int, bytes int64) {
	if e := m.ents[id]; e != nil && e.bytes > max(bytes, 0) {
		m.release(e, e.bytes-max(bytes, 0))
	}
}

// contents is Cache.Contents.
func (m *modelCache) contents() []Placement {
	var out []Placement
	for _, e := range m.ents {
		if e.bytes > 0 {
			out = append(out, Placement{Object: e.obj, Bytes: e.bytes, Utility: e.utility})
		}
	}
	slices.SortFunc(out, func(a, b Placement) int {
		if c := cmp.Compare(b.Utility, a.Utility); c != 0 {
			return c
		}
		return cmp.Compare(a.Object.ID, b.Object.ID)
	})
	return out
}

var modelPolicies = []string{"IF", "PB", "IB", "PB-V", "IB-V", "LRU", "LFU", "HYBRID", "HYBRID-V", "GDS", "GDS-BW", "GDSP"}

// FuzzCacheModel holds core.Cache to modelCache: a random catalog of up
// to 8 objects and a capacity up to its total size, then a script of
// two bytes an operation — an access to an object at one of eight
// bandwidths around its rate, or a Truncate to a fraction of its prefix
// (now and then of an ID the cache never saw) — under any of the twelve
// policies, byte-granular or whole-object. After every operation each
// AccessResult field, the victims in eviction order, and the cached
// prefixes, keys and byte total must be the model's, and the cache's
// own invariants must hold. Requests arrive at strictly increasing
// times, so no two cached objects share a key and a last request: the
// model states no order for such a tie.
func FuzzCacheModel(f *testing.F) {
	for p := range modelPolicies {
		for _, whole := range []bool{false, true} {
			for seed := range int64(3) {
				rng := rand.New(rand.NewSource(seed*int64(len(modelPolicies)) + int64(p)))
				ops := make([]byte, 2*(8+rng.Intn(120)))
				rng.Read(ops)
				f.Add(seed, uint8(p), whole, ops)
			}
		}
	}
	bandwidths := []float64{0, 0.1, 0.5, 0.9, 1, 1.5, 3, 20} // times the object's rate
	f.Fuzz(func(t *testing.T, seed int64, policy uint8, whole bool, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		p, err := PolicyByName(modelPolicies[int(policy)%len(modelPolicies)], rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		objs := make([]Object, 1+rng.Intn(8))
		var total int64
		for id := range objs {
			rate, dur := 100+rng.Float64()*900, 1+rng.Float64()*99
			objs[id] = Object{ID: id, Size: int64(rate * dur), Duration: dur, Rate: rate, Value: float64(rng.Intn(8))}
			total += objs[id].Size
		}
		capacity := rng.Int63n(total + 1)
		c, err := New(capacity, p, WithWholeObjectEviction(whole))
		if err != nil {
			t.Fatal(err)
		}
		m := &modelCache{capacity: capacity, policy: p, aging: Ages(p), whole: whole, ents: map[int]*modelEntry{}}
		now := 0.0
		for k := 0; k+1 < len(ops); k += 2 {
			a, b := ops[k], ops[k+1]
			obj := objs[int(a&0x3f)%len(objs)]
			if a&0xc0 == 0xc0 { // a quarter of the ops truncate
				id, bytes := obj.ID, c.CachedBytes(obj.ID)*int64(b%5)/4-1
				if b >= 0xf0 {
					id = []int{-1, len(objs), len(objs) + 100}[b%3]
				}
				c.Truncate(id, bytes)
				m.truncate(id, bytes)
			} else {
				now += 0.5 + float64(b)/256
				bw := bandwidths[b%8] * obj.Rate
				got, want := c.Access(obj, bw, now), m.access(obj, bw, now)
				if got.HitBytes != want.HitBytes || got.CachedAfter != want.CachedAfter || got.Target != want.Target ||
					got.EvictedBytes != want.EvictedBytes || !slices.Equal(got.Victims, want.Victims) {
					t.Fatalf("op %d: access of %d at %v:\n got %+v\nwant %+v", k/2, obj.ID, bw, got, want)
				}
			}
			if err := c.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", k/2, err)
			}
			if got, want := c.Contents(), m.contents(); c.Used() != m.used || !slices.Equal(got, want) {
				t.Fatalf("op %d: cache holds %d bytes %+v\nmodel holds %d bytes %+v", k/2, c.Used(), got, m.used, want)
			}
		}
	})
}
