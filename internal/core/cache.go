package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrBadCache reports an invalid cache construction.
var ErrBadCache = errors.New("core: invalid cache")

// Option configures optional cache behavior.
type Option interface {
	apply(*Cache)
}

type wholeObjectEvictionOption bool

func (o wholeObjectEvictionOption) apply(c *Cache) { c.wholeEviction = bool(o) }

// WithWholeObjectEviction makes eviction remove entire victim objects
// instead of shrinking their cached prefix byte-by-byte. Partial (byte
// granular) eviction is the default because it tracks the fractional
// knapsack optimum; the whole-object mode exists for the ablation study
// in DESIGN.md section 6.
func WithWholeObjectEviction(on bool) Option { return wholeObjectEvictionOption(on) }

type expectedObjectsOption int

func (o expectedObjectsOption) apply(c *Cache) {
	if n := int(o); n > 0 {
		c.ensure(n - 1)
		// Keep an already-large-enough heap array (a Reset cache reuses
		// its backing storage); only a fresh or undersized cache allocates.
		if cap(c.heap) < n {
			c.heap = make([]int32, 0, n)
		} else {
			c.heap = c.heap[:0]
		}
	}
}

// WithExpectedObjects pre-sizes the cache's ID-indexed tables for n
// objects (IDs 0..n-1), so the simulation hot path never pays a table
// regrowth. Purely a capacity hint: the tables still grow on demand for
// larger IDs.
func WithExpectedObjects(n int) Option { return expectedObjectsOption(n) }

// Cache is a partial-caching proxy cache: each object may occupy any
// prefix of its full size, admission and eviction are driven by the
// configured Policy's utility, and replacement uses a priority queue
// (heap) keyed by utility as described in Section 2.4. Under an aging
// policy (Ages) an entry's key is the cache's own inflation value L plus
// the policy's utility, and each eviction raises L to the victim's key:
// GreedyDual's aging lives in the cache, so one policy value can serve
// any number of caches.
//
// Memory layout (DESIGN.md section on the hot path): object IDs index
// dense slice-backed tables, so the per-access cost is a slice load
// instead of a map lookup, and the eviction heap stores plain int32 IDs
// ordered by a specialized comparison — no boxed values, no interface
// dispatch. An access touches one 40-byte hot entry (prefix size,
// utility, frequency, last request, heap position); the Object itself
// lives in a cold table that only insertion, Contents and the invariant
// check read. IDs must therefore be small, non-negative and densely
// assigned (the workload generator's 0..N-1 scheme); table memory grows
// with the largest ID seen.
type Cache struct {
	capacity      int64
	used          int64
	policy        Policy
	aging         bool     // Ages(policy): keys add inflation
	inflation     float64  // GreedyDual's L, raised to each victim's utility
	ents          []entry  // indexed by object ID; bytes > 0 ⇔ cached
	objs          []Object // indexed by object ID; objs[id] is current while ents[id] is cached
	heap          []int32  // cached object IDs, min-heap on (utility, last)
	victims       []Victim // scratch reused across Access calls
	wholeEviction bool
}

// New builds a cache with the given capacity in bytes and policy.
func New(capacity int64, policy Policy, opts ...Option) (*Cache, error) {
	c := new(Cache)
	if err := c.Reset(capacity, policy, opts...); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the cache to the state New(capacity, policy, opts...)
// would produce while retaining the backing arrays of the ID-indexed
// tables, the heap and the victim scratch buffer. A sweep that runs many
// simulations over one object population can therefore pool caches
// across runs instead of re-growing the tables every time; the
// steady-state Reset performs zero heap allocations (pinned by an
// AllocsPerRun regression test). Behavior after Reset is exactly that of
// a freshly constructed cache: every entry, stat and counter is cleared.
// A zero Cache is ready for Reset.
func (c *Cache) Reset(capacity int64, policy Policy, opts ...Option) error {
	if capacity < 0 {
		return fmt.Errorf("%w: capacity=%d, want >= 0", ErrBadCache, capacity)
	}
	if policy == nil {
		return fmt.Errorf("%w: nil policy", ErrBadCache)
	}
	clear(c.ents) // objs needs no clearing: it is read only for cached entries
	c.heap = c.heap[:0]
	c.victims = c.victims[:0]
	c.used = 0
	c.capacity = capacity
	c.policy = policy
	c.aging, c.inflation = Ages(policy), 0
	c.wholeEviction = false
	for _, o := range opts {
		o.apply(c)
	}
	return nil
}

// ensure grows the ID-indexed tables to cover id. IDs outside [0, 2^31)
// panic rather than corrupt the int32-indexed heap or silently exhaust
// memory; frontends that accept external IDs (proxy.NewCatalog)
// validate the range at construction time.
func (c *Cache) ensure(id int) {
	if id < 0 || int64(id) > math.MaxInt32 {
		panic(fmt.Sprintf("core: object ID %d outside [0, 2^31); dense table layout requires small non-negative IDs", id))
	}
	if id < len(c.ents) {
		return
	}
	n := id + 1
	if n < 2*len(c.ents) {
		n = 2 * len(c.ents)
	}
	ents := make([]entry, n)
	copy(ents, c.ents)
	c.ents = ents
	objs := make([]Object, n)
	copy(objs, c.objs)
	c.objs = objs
}

// Victim records bytes evicted from one object during an access.
type Victim struct {
	ID    int
	Bytes int64
}

// AccessResult reports what one request observed and caused.
type AccessResult struct {
	// HitBytes is the cached prefix size when the request arrived -
	// the bytes the client could stream from the cache.
	HitBytes int64
	// CachedAfter is the cached prefix size after admission/eviction.
	CachedAfter int64
	// Target is the policy's desired prefix size for this access.
	Target int64
	// EvictedBytes counts bytes evicted from other objects to admit
	// this one.
	EvictedBytes int64
	// Victims lists which objects lost bytes (one entry per object);
	// byte-store frontends use this to release the evicted data.
	//
	// The slice aliases a per-cache scratch buffer that the next Access
	// call on the same Cache overwrites: consume it before the next
	// access (as the proxy frontend does under its lock) or copy it.
	Victims []Victim
}

// Access records a request for obj with estimated path bandwidth bw at
// logical time now, updates the object's frequency and utility, and
// grows or shrinks its cached prefix toward the policy target, evicting
// strictly-lower-utility bytes if needed.
//
// The steady-state hot path (hits and byte-granular evictions) performs
// no heap allocations; see the AllocsPerRun regression tests.
func (c *Cache) Access(obj Object, bw float64, now float64) (r AccessResult) {
	r.HitBytes, r.CachedAfter, r.Target, r.EvictedBytes, r.Victims = c.AccessWithTarget(obj, c.policy.Target(obj, bw), bw, now)
	return r
}

// AccessWithTarget is Access with the policy's target for obj at bw
// supplied by the caller, and with AccessResult's fields returned as
// values, in field order: the prefix the request found, the prefix
// after the access, the target clamped to [0, obj.Size], the bytes
// evicted and the victims (which alias a scratch buffer, as
// AccessResult.Victims does). target must be
// c.Policy().Target(obj, bw) for the access to be Access's. A caller
// whose bandwidth for an object never changes — a simulation under
// the oracle estimator — computes each object's target once instead
// of once per request.
//
// The values come back in registers. A caller that receives an
// AccessResult instead spills it to the stack and copies it there in
// 16-byte moves over the 8-byte stores of its fields, a
// store-forwarding stall per call; the simulator's loops read the
// values (DESIGN.md §5a).
func (c *Cache) AccessWithTarget(obj Object, target int64, bw float64, now float64) (hit, after, clamped, evicted int64, victims []Victim) {
	id := obj.ID
	c.ensure(id)
	e := &c.ents[id]
	e.freq++
	e.last = now
	hit = e.bytes // > 0 ⇔ cached

	clamped = max(min(target, obj.Size), 0)
	utility := c.policy.Utility(AccessStats{Freq: e.freq, LastAccess: e.last}, obj, bw)
	if c.aging {
		utility = c.inflation + utility
	}

	// Refresh the existing entry's priority before any space decision.
	if hit > 0 {
		e.utility = utility
		c.heapFix(e.heapIdx)
	}

	switch {
	case hit > clamped:
		// Policy wants less than we hold (e.g. bandwidth improved):
		// release the excess immediately.
		c.shrink(int32(id), hit-clamped)
	case clamped > hit:
		need := clamped - hit
		evicted, victims = c.makeRoom(need, utility, id)
		if grant := min(need, c.capacity-c.used); grant > 0 {
			if hit == 0 {
				c.objs[id] = obj
				e.utility = utility
				c.heapPush(id)
			}
			e.bytes += grant
			c.used += grant
		}
	}
	return hit, e.bytes, clamped, evicted, victims
}

// makeRoom evicts bytes from strictly-lower-utility entries until need
// bytes are free or no eligible victim remains. The requesting object
// (selfID) is never victimized. It returns the total bytes evicted and
// the per-object breakdown (backed by the reusable scratch buffer).
func (c *Cache) makeRoom(need int64, utility float64, selfID int) (int64, []Victim) {
	c.victims = c.victims[:0]
	var evicted int64
	for c.capacity-c.used < need && len(c.heap) > 0 {
		vid := c.heap[0]
		v := &c.ents[vid]
		if int(vid) == selfID || v.utility >= utility {
			break // nothing strictly cheaper than the requester remains
		}
		take := v.bytes
		if !c.wholeEviction {
			shortfall := need - (c.capacity - c.used)
			if take > shortfall {
				take = shortfall
			}
		}
		c.victims = append(c.victims, Victim{ID: int(vid), Bytes: take})
		if c.aging && v.utility > c.inflation {
			c.inflation = v.utility
		}
		c.shrink(vid, take)
		evicted += take
	}
	return evicted, c.victims
}

// Truncate shrinks object id's cached prefix to at most bytes, releasing
// the difference. Byte-store frontends call this when they fail to
// materialize bytes the cache has already accounted for (e.g. an origin
// fetch aborts mid-relay).
func (c *Cache) Truncate(id int, bytes int64) {
	if id < 0 || id >= len(c.ents) || c.ents[id].bytes == 0 {
		return
	}
	if bytes < 0 {
		bytes = 0
	}
	if e := &c.ents[id]; e.bytes > bytes {
		c.shrink(int32(id), e.bytes-bytes)
	}
}

// shrink releases take bytes from the entry of object id, removing it
// from the heap when its prefix reaches zero.
func (c *Cache) shrink(id int32, take int64) {
	e := &c.ents[id]
	if take <= 0 {
		return
	}
	if take > e.bytes {
		take = e.bytes
	}
	e.bytes -= take
	c.used -= take
	if e.bytes == 0 {
		c.heapRemove(e.heapIdx)
	}
}

// CachedBytes returns the cached prefix size of object id (0 if absent).
func (c *Cache) CachedBytes(id int) int64 {
	if id < 0 || id >= len(c.ents) {
		return 0
	}
	return c.ents[id].bytes
}

// Used returns the total cached bytes.
func (c *Cache) Used() int64 { return c.used }

// Capacity returns the configured capacity in bytes.
func (c *Cache) Capacity() int64 { return c.capacity }

// Len returns the number of (partially) cached objects.
func (c *Cache) Len() int { return len(c.heap) }

// Policy returns the configured replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// Placement is a snapshot of one cached object.
type Placement struct {
	Object  Object
	Bytes   int64
	Utility float64
}

// Contents returns a snapshot of all cached objects ordered by
// descending utility (hottest first).
func (c *Cache) Contents() []Placement {
	out := make([]Placement, 0, len(c.heap))
	for _, id := range c.heap {
		e := &c.ents[id]
		out = append(out, Placement{Object: c.objs[id], Bytes: e.bytes, Utility: e.utility})
	}
	slices.SortFunc(out, func(a, b Placement) int {
		if a.Utility != b.Utility {
			if a.Utility > b.Utility {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Object.ID, b.Object.ID)
	})
	return out
}

// checkInvariants verifies internal consistency; tests call it after
// mutation sequences.
func (c *Cache) checkInvariants() error {
	if c.used < 0 || c.used > c.capacity {
		return fmt.Errorf("core: used %d outside [0, %d]", c.used, c.capacity)
	}
	if len(c.ents) != len(c.objs) {
		return fmt.Errorf("core: entry table %d != object table %d", len(c.ents), len(c.objs))
	}
	var sum int64
	var live int
	for id := range c.ents {
		e := &c.ents[id]
		if e.bytes == 0 {
			continue
		}
		live++
		if obj := c.objs[id]; obj.ID != id {
			return fmt.Errorf("core: object slot %d holds object %d", id, obj.ID)
		} else if e.bytes < 0 || e.bytes > obj.Size {
			return fmt.Errorf("core: object %d cached bytes %d outside (0, %d]", id, e.bytes, obj.Size)
		}
		sum += e.bytes
		if e.heapIdx < 0 || int(e.heapIdx) >= len(c.heap) || c.heap[e.heapIdx] != int32(id) {
			return fmt.Errorf("core: object %d heap index %d inconsistent", id, e.heapIdx)
		}
	}
	if sum != c.used {
		return fmt.Errorf("core: used %d != sum of entries %d", c.used, sum)
	}
	if len(c.heap) != live {
		return fmt.Errorf("core: heap len %d != cached entries %d", len(c.heap), live)
	}
	for i := 1; i < len(c.heap); i++ {
		if parent := (i - 1) / 2; c.entryLess(c.heap[i], c.heap[parent]) {
			return fmt.Errorf("core: heap order violated at index %d", i)
		}
	}
	return nil
}
