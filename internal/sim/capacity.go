// Groups: one call scores the sweep points that differ only in cache
// capacity and bandwidth variability.
//
// Variability never enters the cache unless its estimator observes:
// Access reads the object, its price and the arrival time, the oracle,
// an underestimate and a probe price from the path mean alone, and a
// request's instantaneous bandwidth is read only after the access, by
// the delay, quality and value of the bytes it found. So the members of
// a group at one capacity share one cache trajectory and differ only in
// what each makes of it from its own bandwidth column; an estimator that
// observes that bandwidth feeds it back into the next estimate, so under
// one each member replays alone (DESIGN.md §5a).
//
// The capacity pass: one replay of a tape scores a whole cache-size axis.
//
// Under the oracle estimator a policy's target for an object is constant
// (its inputs, the object and its path mean, are), an object's utility
// changes only on its own access and never falls, core.Cache evicts only
// strictly-lower-utility bytes, byte by byte, and a full cache stays
// full. Then, as long as no two objects ever share a utility, the cache
// at any capacity C holds the greedy fill of the objects requested so
// far: ranked by current utility, each takes up to its target from what
// the higher-ranked ones left. A request's hit bytes are therefore
// clamp(C - S, 0, target), S the targets of the objects ranked above
// its object, and one pass that keeps every object's live utility rank
// in a Fenwick tree of targets answers S — and so every capacity — at
// once: Mattson et al.'s stack-algorithm inclusion property, from whole
// objects generalised to byte prefixes (DESIGN.md §5a has the argument).
// Only the measured requests are scored, and the tree at the warm-up's
// end holds just each object's last warm-up key, so the pass builds
// that tree in one linear sweep instead of replaying the warm-up.
// Where a condition fails the run replays through core.Cache once per
// capacity instead, so the result is exact either way.
//
// One ranking per family: the ranking reads the tape, the path means and
// the policy's Utility, never a target or a capacity, and PB, IB and
// every hybrid between them rank by F/b (core.Ranker). So a run seed
// ranks its tape once for a family of such groups and each group's pass
// reads that ranking through its own targets: an object it does not
// cache adds nothing to the tree, and its ties and bad utilities refuse
// no one else's pass.
package sim

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
)

// Member is one point of a group: the cache capacity and the bandwidth
// variability it runs at (nil is constant bandwidth, as in Config).
type Member struct {
	CacheBytes int64
	Variation  bandwidth.Variability
}

// RunGroup returns, for each member, the Metrics of cfg's runs with
// CacheBytes and Variation set to the member's (cfg's own two are not
// read); Run is its one-member case. Unless the Estimator observes, the
// members at one capacity share one cache trajectory, each scoring it
// from its own bandwidth column. With two or more distinct capacities a
// run seed's trajectories come from one pass over its tape when the
// configuration lets the pass be exact — the oracle estimator (nil
// Estimator), a Policy the cache does not age (core.Ages), byte-granular
// eviction (no WholeObjectEviction) — and the seed's utilities are all
// finite, positive and distinct between the objects the policy caches;
// otherwise from one core.Cache replay per distinct capacity. Under an
// estimator that observes, each member replays alone.
// Policy Utility and Target must be pure functions of their arguments,
// as every built-in policy's are. It scores every member it is given and
// never reads the arena's answers (share.go: ScorePending does);
// cfg.Arena's Groups counts which way each call went.
func RunGroup(cfg Config, members []Member) ([]Metrics, error) {
	ms, err := runFamily([]Config{cfg}, [][]Member{members})
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// runFamily is RunGroup for a family of groups: ms[j] holds the Metrics
// of members[j] under cfgs[j]. The cfgs differ in their Policy at most,
// and their policies rank alike (core.Ranker), so one set of runs scores
// them all: each run seed reads its tape once and ranks its requests at
// most once for every group that takes the capacity pass (scoreSeed).
// RunGroup is its one-group case. The cfgs share the first one's arena.
func runFamily(cfgs []Config, members [][]Member) ([][]Metrics, error) {
	gs := make([]group, len(cfgs))
	width := 0
	for j := range cfgs {
		var err error
		if j > 0 {
			cfgs[j].Arena = cfgs[0].Arena
		}
		if cfgs[j], err = cfgs[j].normalize(); err != nil {
			return nil, err
		}
		if gs[j], err = newGroup(cfgs[j], members[j]); err != nil {
			return nil, err
		}
		width += len(members[j])
	}
	cfg := cfgs[0]
	fellBack := make([]atomic.Int64, len(gs))
	ms, err := averageRuns(cfg, "run", func(seed int64) ([]Metrics, error) {
		rp, err := cfg.Arena.tapeOf(cfg, seed)
		if err != nil {
			return nil, err
		}
		cols := make([]column, 0, width)
		for _, g := range gs {
			for _, m := range g.members {
				one := cfg
				one.Variation = m.Variation
				cols = append(cols, cfg.Arena.column(one, seed, rp))
			}
		}
		out, onePass := make([]Metrics, width), make([]bool, len(gs))
		ranked, err := scoreSeed(cfgs, gs, rp, cols, out, onePass)
		if ranked {
			cfg.Arena.ranks.Add(1)
		}
		for j, passed := range onePass {
			if !passed {
				fellBack[j].Add(1)
			}
		}
		return out, err
	}, addEach, overEach)
	if err != nil {
		return nil, err
	}
	out := make([][]Metrics, len(gs))
	for j, g := range gs {
		if len(g.caps) >= 2 {
			if fellBack[j].Load() == 0 {
				cfg.Arena.passes.Add(1)
			}
			cfg.Arena.fallbacks.Add(fellBack[j].Load())
		}
		if !cfgs[j].observes() {
			cfg.Arena.shared.Add(int64(len(g.members) - len(g.caps)))
		}
		out[j] = make([]Metrics, len(g.members))
		for k, i := range g.order {
			out[j][i] = ms[k]
		}
		ms = ms[len(g.members):]
	}
	return out, nil
}

// group is a RunGroup call's members sorted (stably) by capacity: caps
// are the distinct capacities, ascending, and order[k] is member k's
// index in the caller's slice.
type group struct {
	members []Member
	order   []int
	caps    []int64
}

// newGroup returns the group of members under cfg, each member
// validated and defaulted as cfg at its capacity and variability is.
func newGroup(cfg Config, members []Member) (group, error) {
	g := group{members: make([]Member, len(members)), order: make([]int, len(members))}
	for k := range members {
		g.order[k] = k
	}
	slices.SortStableFunc(g.order, func(a, b int) int { return cmp.Compare(members[a].CacheBytes, members[b].CacheBytes) })
	for k, i := range g.order {
		one := cfg
		one.CacheBytes, one.Variation = members[i].CacheBytes, members[i].Variation
		one, err := one.withDefaults()
		if err != nil {
			return group{}, err
		}
		m := Member{one.CacheBytes, one.Variation}
		g.members[k] = m
		if k == 0 || m.CacheBytes != g.caps[len(g.caps)-1] {
			g.caps = append(g.caps, m.CacheBytes)
		}
	}
	return g, nil
}

// takesPass reports whether c lets the capacity pass be exact: under the
// oracle, whose path means the pass prices at, a policy the cache does
// not age and byte-granular eviction.
func (c Config) takesPass() bool {
	return c.Estimator == nil && !core.Ages(c.Policy) && !c.WholeObjectEviction
}

// scoreSeed fills out with the Metrics of one run of rp for every
// member of the groups gs, group after group — group j's under cfgs[j],
// each member reading the bandwidth column at its own position in cols —
// and sets onePass[j] when the capacity pass scored group j. A group
// takes the pass when it can (takesPass, two or more capacities); else
// it replays once per distinct capacity, or once per member under an
// estimator that observes what each request got. The groups' policies
// rank alike (runFamily), so the first group to take the pass ranks
// rp's requests and every later one reads that ranking; scoreSeed
// reports whether it ranked.
func scoreSeed(cfgs []Config, gs []group, rp *tape, cols []column, out []Metrics, onePass []bool) (ranked bool, err error) {
	s := passPool.Get().(*passScratch)
	defer passPool.Put(s)
	var r ranking
	for j, g := range gs {
		cfg, n := cfgs[j], len(g.members)
		if cfg.takesPass() && len(g.caps) >= 2 {
			if !ranked {
				r, ranked = s.rank(cfg.Policy, rp), true
			}
			onePass[j] = s.pass(cfg, rp, r, g.members, cols[:n], out[:n])
		}
		for lo := 0; lo < n && !onePass[j]; {
			hi := lo + 1
			for hi < n && !cfg.observes() && g.members[hi].CacheBytes == g.members[lo].CacheBytes {
				hi++
			}
			if err := replayColumns(cfg, rp, g.members[lo].CacheBytes, cols[lo:hi], out[lo:hi]); err != nil {
				return ranked, err
			}
			lo = hi
		}
		cols, out = cols[n:], out[n:]
	}
	return ranked, nil
}

// addEach and overEach are Metrics.add and Metrics.over per member.
func addEach(agg *[]Metrics, ms []Metrics) {
	if *agg == nil {
		*agg = make([]Metrics, len(ms))
	}
	for k := range ms {
		(*agg)[k].add(ms[k])
	}
}

func overEach(agg *[]Metrics, runs int) {
	for k := range *agg {
		(*agg)[k].over(runs)
	}
}

// passScratch is everything one run seed's ranking and capacity passes
// mutate, pooled across runs like runScratch: per object, per request
// and per member. Every slot is written or cleared before it is read,
// and nothing in it outlives the seed that filled it.
type passScratch struct {
	freq        []int64   // per object: requests so far (rank)
	prev        []float64 // per object: its latest utility so far (rank)
	bad         []bool    // per object: a utility not finite and positive, or one that fell (rank)
	held        []int32   // per object: its last warm-up request, then that key's slot, -1 if none (rank)
	keys, keys2 []uint64  // per request: utility bits and the sort's other half, then a pass's Fenwick tree
	idx, idx2   []int32   // per request: request index and the sort's other half, then request -> slot
	ties        []int32   // the bounds of each tie run (rank)
	target      []int64   // per object: the group's clamped target (pass)
	last        []int32   // per object: slot of its live key, -1 before its first (pass)
	acc         []memberTotals
	counts      [8][256]int32
}

var passPool = sync.Pool{New: func() any { return new(passScratch) }}

// fit returns s resliced to n, reusing its storage when it can.
func fit[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// ranking is one run seed's order of every request of a tape by the
// utility its object has after the access, the same for every policy
// with one core.Ranker. Only the keys a pass's tree ever holds — each
// object's last warm-up key and every measured key — get a slot, in
// the same order. Its slices live in the passScratch that ranked it,
// until that scratch ranks again.
type ranking struct {
	order []int32 // request indices by ascending utility, equal utilities in request order
	slot  []int32 // per request from the warm-up's end, and per held key: its slot in the tree
	held  []int32 // per object: the slot of its last warm-up key, -1 if it has none
	ties  []int32 // [ties[2t], ties[2t+1]) in order: a run of one utility spanning two or more objects
	bad   []bool  // per object: some utility of its not finite and positive, or below the one before
	tree  fenwick // spare storage, one node more than there are slots
}

// rank ranks every request of rp under policy: its post-access utility,
// as Access computes it, radix-sorted. A pass reads the ranking through
// its own targets (pass), so the groups of a family each check its ties
// and bad objects against what they cache.
func (s *passScratch) rank(policy core.Policy, rp *tape) ranking {
	n, objects, warm := len(rp.obj), len(rp.objs), warmup(len(rp.obj))
	s.freq, s.prev, s.bad, s.held = fit(s.freq, objects), fit(s.prev, objects), fit(s.bad, objects), fit(s.held, objects)
	clear(s.freq)
	clear(s.prev)
	clear(s.bad)
	for o := range s.held {
		s.held[o] = -1
	}
	// Each buffer pair is sized for the role it ends in: the sorted keys'
	// buffer becomes the tree, the spare idx buffer the slot of each
	// request.
	s.keys, s.idx = fit(s.keys, n+1)[:n], fit(s.idx, n)
	for i, o := range rp.obj {
		s.freq[o]++
		u := policy.Utility(core.AccessStats{Freq: s.freq[o], LastAccess: rp.time[i]}, rp.objs[o], rp.means[o])
		// A utility that falls is the pass's to refuse: the stable sort
		// would rank the key below its object's previous one.
		if !(u > 0 && u <= math.MaxFloat64) || u < s.prev[o] {
			s.bad[o] = true
		}
		s.prev[o] = u
		if i < warm {
			s.held[o] = int32(i)
		}
		s.keys[i], s.idx[i] = math.Float64bits(u), int32(i) // ordered as u is, for positive u
	}
	s.keys2, s.idx2 = fit(s.keys2, n+1)[:n], fit(s.idx2, n)
	keys, order, slot := radixSort(s.keys, s.idx, s.keys2, s.idx2, &s.counts)
	s.ties = s.ties[:0]
	for lo := 0; lo < n; {
		hi, mixed := lo+1, false
		for ; hi < n && keys[hi] == keys[lo]; hi++ {
			mixed = mixed || rp.obj[order[hi]] != rp.obj[order[lo]]
		}
		if mixed {
			s.ties = append(s.ties, int32(lo), int32(hi))
		}
		lo = hi
	}
	// A warm-up key its object replaces before the warm-up ends is in
	// no tree the measured requests read: it gets no slot.
	slots := int32(0)
	for _, i := range order {
		if int(i) >= warm || s.held[rp.obj[i]] == i {
			slot[i], slots = slots, slots+1
		}
	}
	for o, i := range s.held {
		if i >= 0 {
			s.held[o] = slot[i]
		}
	}
	return ranking{order: order, slot: slot, held: s.held, ties: s.ties, bad: s.bad, tree: fenwick(keys[:slots+1])}
}

// pass scores one run of rp for every member, member k reading
// bandwidth column cols[k], from the ranking r of rp's requests, into
// out and reports true, or reports false, leaving out unspecified, when
// an object cfg's policy caches is bad (a utility not finite and
// positive, or one that fell) or shares a utility with another such
// object. Objects it does not cache add nothing to the tree, so ranking
// them beside the rest moves no sum.
func (s *passScratch) pass(cfg Config, rp *tape, r ranking, members []Member, cols []column, out []Metrics) bool {
	n := len(rp.obj)
	s.target = priceTargets(s.target, cfg.Policy, rp, column{inst: rp.means})
	for o, bad := range r.bad {
		if bad && s.target[o] > 0 {
			return false
		}
	}
	// The stable sort breaks equal keys by request index, which orders
	// one object's keys exactly, but two cached objects with one utility
	// would make the greedy fill guess a tie core.Cache breaks its own
	// way.
	for t := 0; t < len(r.ties); t += 2 {
		kept := -1
		for _, i := range r.order[r.ties[t]:r.ties[t+1]] {
			if o := int(rp.obj[i]); s.target[o] > 0 {
				if kept >= 0 && o != kept {
					return false
				}
				kept = o
			}
		}
	}
	// The tree at the warm-up's end holds each object's last warm-up
	// key, whatever came before it: build it from those in O(slots).
	s.last = append(s.last[:0], r.held...)
	slot, tree := r.slot, r.tree
	clear(tree)
	var live int64 // targets of every object requested so far
	for o, h := range r.held {
		if t := s.target[o]; h >= 0 && t > 0 {
			tree[h+1], live = uint64(t), live+t
		}
	}
	tree.build()

	// Replay the measured requests in order: before each access its
	// object's hit bytes at every capacity, after it the fill that
	// Access leaves.
	s.acc = fit(s.acc, len(members))
	acc := s.acc
	clear(acc)
	warm := warmup(n)
	var total float64 // watched bytes of the measured requests
	for i := warm; i < n; i++ {
		o := rp.obj[i]
		obj, t := rp.objs[o], s.target[o]
		watched := rp.watchedAt(i, obj.Size)
		total += float64(watched)
		var (
			delay, quality float64
			servable       bool
			scored         = int64(-1) // the hit bytes and bandwidth delay, quality and servable are for
			scoredBW       float64
		)
		if t == 0 {
			// An object the group does not cache is in no tree: every
			// member misses it, grants it nothing and evicts nothing for
			// it (the fill stays at live), so only the bandwidth terms at
			// hit 0 are left to add; cached gains +0.
			for k := range members {
				if bw := cols[k].at(i, o); scored != 0 || bw != scoredBW {
					delay, quality, servable = core.StartupDelay(obj, 0, bw), core.StreamQuality(obj, 0, bw), core.ImmediatelyServable(obj, 0, bw)
					scored, scoredBW = 0, bw
				}
				a := &acc[k]
				a.delay += delay
				a.quality += quality
				if servable {
					a.value += obj.Value
				}
			}
			continue
		}
		at, prev, before := slot[i], s.last[o], live
		var above int64 // targets ranked above o's key before the access
		if prev >= 0 {
			above = live - tree.sum(prev)
			tree.add(prev, -t)
		} else {
			live += t
		}
		tree.add(at, t)
		s.last[o] = at
		aboveAfter := live - tree.sum(at)
		// Members at one capacity each work out its hit bytes: a loop
		// over the distinct capacities with their members inside measured
		// 8 % slower on BenchmarkCapacityAxis's PB pass.
		for k := range members {
			cb := members[k].CacheBytes
			var hit int64
			if prev >= 0 {
				hit = min(max(cb-above, 0), t)
			}
			held := min(max(cb-aboveAfter, 0), t)
			if bw := cols[k].at(i, o); hit != scored || bw != scoredBW {
				delay, quality, servable = core.StartupDelay(obj, hit, bw), core.StreamQuality(obj, hit, bw), core.ImmediatelyServable(obj, hit, bw)
				scored, scoredBW = hit, bw
			}
			a := &acc[k]
			a.delay += delay
			a.quality += quality
			if servable {
				a.value += obj.Value
			}
			a.cached += float64(min(hit, watched))
			if hit > 0 {
				a.hits++
			}
			// Access's grant is held - hit and the fill moves from
			// min(C, before) to min(C, live): the rest was evicted.
			a.evicted += min(cb, before) - min(cb, live) + held - hit
		}
	}

	for k, a := range acc {
		out[k] = a.metrics(n-warm, total)
	}
	return true
}

// radixSort sorts keys ascending and permutes idx alongside them, an LSD
// radix sort by byte and therefore stable; keys2 and idx2, as long as
// keys, are the other half of each pass, and a pass whose byte every key
// shares is skipped. It returns the sorted pair and the idx-sized buffer
// it left spare. (11- and 16-bit digits measured no faster.)
func radixSort(keys []uint64, idx []int32, keys2 []uint64, idx2 []int32, counts *[8][256]int32) ([]uint64, []int32, []int32) {
	*counts = [8][256]int32{}
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	for b := range counts {
		c := &counts[b]
		shift := 8 * b
		if len(keys) == 0 || int(c[byte(keys[0]>>shift)]) == len(keys) {
			continue
		}
		var sum int32
		for d, count := range c {
			c[d], sum = sum, sum+count
		}
		for p, k := range keys {
			d := byte(k >> shift)
			keys2[c[d]], idx2[c[d]] = k, idx[p]
			c[d]++
		}
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
	}
	return keys, idx, idx2
}

// fenwick is a binary indexed tree over slots 0..len-2: add and sum
// (over slots 0..i) in O(log n), build in O(n). Its nodes are uint64
// so that it can live in a sort buffer; arithmetic modulo 2^64 leaves
// every sum that fits an int64, as byte counts do, exact.
type fenwick []uint64

func (f fenwick) add(i int32, d int64) {
	for j := int(i) + 1; j < len(f); j += j & -j {
		f[j] += uint64(d)
	}
}

// build turns f, holding each slot's value at its own node (slot i at
// node i+1), into the tree the adds of those values leave: each node,
// complete once every lower node has added in, adds itself to its
// parent. The sums are the same integers, in any order.
func (f fenwick) build() {
	for j := 1; j < len(f); j++ {
		if p := j + j&-j; p < len(f) {
			f[p] += f[j]
		}
	}
}

func (f fenwick) sum(i int32) int64 {
	var s uint64
	for j := int(i) + 1; j > 0; j &= j - 1 {
		s += f[j]
	}
	return int64(s)
}
