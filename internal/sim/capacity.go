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
// Where a condition fails the run replays through core.Cache once per
// capacity instead, so the result is exact either way.
package sim

import (
	"cmp"
	"fmt"
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
// finite, positive and distinct between objects; otherwise from one
// core.Cache replay per distinct capacity. Under an estimator that
// observes, each member replays alone.
// Policy Utility and Target must be pure functions of their arguments,
// as every built-in policy's are. It scores every member it is given and
// never reads the arena's answers (share.go: ScorePending does);
// cfg.Arena's Groups counts which way each call went.
func RunGroup(cfg Config, members []Member) ([]Metrics, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	g, err := newGroup(members)
	if err != nil {
		return nil, err
	}
	var fellBack atomic.Int64
	ms, err := averageRuns(cfg, "run", func(seed int64) ([]Metrics, error) {
		rp, err := cfg.Arena.replay(cfg, seed)
		if err != nil {
			return nil, err
		}
		cols := make([]column, len(g.members))
		for k, m := range g.members {
			one := cfg
			one.Variation = m.Variation
			cols[k] = cfg.Arena.column(one, seed, rp)
		}
		out := make([]Metrics, len(cols))
		onePass, err := g.score(cfg, rp, cols, out)
		if !onePass {
			fellBack.Add(1)
		}
		return out, err
	}, addEach, overEach)
	if err != nil {
		return nil, err
	}
	if len(g.caps) >= 2 {
		if fellBack.Load() == 0 {
			cfg.Arena.passes.Add(1)
		}
		cfg.Arena.fallbacks.Add(fellBack.Load())
	}
	if !cfg.observes() {
		cfg.Arena.shared.Add(int64(len(g.members) - len(g.caps)))
	}
	out := make([]Metrics, len(ms))
	for k, i := range g.order {
		out[i] = ms[k]
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

func newGroup(members []Member) (group, error) {
	g := group{members: make([]Member, len(members)), order: make([]int, len(members))}
	for k, m := range members {
		if m.CacheBytes < 0 {
			return group{}, fmt.Errorf("%w: capacity %d", ErrBadConfig, m.CacheBytes)
		}
		g.order[k] = k
	}
	slices.SortStableFunc(g.order, func(a, b int) int { return cmp.Compare(members[a].CacheBytes, members[b].CacheBytes) })
	for k, i := range g.order {
		m := members[i]
		if m.Variation == nil {
			m.Variation = bandwidth.NoVariation{} // constant bandwidth, as in Config
		}
		g.members[k] = m
		if k == 0 || m.CacheBytes != g.caps[len(g.caps)-1] {
			g.caps = append(g.caps, m.CacheBytes)
		}
	}
	return g, nil
}

// score fills out[k] with the Metrics of one run of rp for member k,
// whose bandwidth column is cols[k]: in one capacity pass when it can —
// two or more capacities under the oracle, whose path means the pass
// prices at, a policy the cache does not age and byte-granular eviction
// — else with one replay per distinct capacity, or one per member under
// an estimator that observes what each request got. It reports whether
// the pass scored it.
func (g group) score(cfg Config, rp replay, cols []column, out []Metrics) (onePass bool, err error) {
	pass := cfg.Estimator == nil && !core.Ages(cfg.Policy) && !cfg.WholeObjectEviction && len(g.caps) >= 2
	if pass && capacityPass(cfg, rp, g.members, cols, out) {
		return true, nil
	}
	for lo := 0; lo < len(g.members); {
		hi := lo + 1
		for hi < len(g.members) && !cfg.observes() && g.members[hi].CacheBytes == g.members[lo].CacheBytes {
			hi++
		}
		if err := replayColumns(cfg, rp, g.members[lo].CacheBytes, cols[lo:hi], out[lo:hi]); err != nil {
			return false, err
		}
		lo = hi
	}
	return false, nil
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

// passScratch is everything one capacity pass mutates, pooled across
// runs like runScratch: per object, per keyed request (a request for an
// object whose target is > 0) and per member. Every slot is written or
// cleared before it is read.
type passScratch struct {
	target, freq []int64  // per object: clamped target; requests so far
	last         []int32  // per object: rank of its live key, -1 before its first
	keys, keys2  []uint64 // per keyed request: utility bits and the sort's other half, then the Fenwick tree
	idx, idx2    []int32  // per keyed request: request index and the sort's other half, then request -> rank
	acc          []memberTotals
	counts       [8][256]int32
}

var passPool = sync.Pool{New: func() any { return new(passScratch) }}

// fit returns s resliced to n, reusing its storage when it can.
func fit[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// capacityPass scores one run of rp for every member, member k reading
// bandwidth column cols[k], into out and reports true, or reports false,
// leaving out unspecified, when one of the seed's utilities is not
// finite and positive, two objects share one or an object's falls.
func capacityPass(cfg Config, rp replay, members []Member, cols []column, out []Metrics) bool {
	s := passPool.Get().(*passScratch)
	defer passPool.Put(s)
	n, objects := len(rp.obj), len(rp.objs)

	// Every keyed request's post-access utility, as Access computes it.
	s.target = priceTargets(s.target, cfg.Policy, rp, column{inst: rp.means})
	s.freq, s.last = fit(s.freq, objects), fit(s.last, objects)
	clear(s.freq)
	for o := range s.last {
		s.last[o] = -1
	}
	// Each buffer pair is sized for the role it ends in: the sorted keys'
	// buffer becomes the m+1-slot tree, the spare idx buffer the rank of
	// each of n requests.
	s.keys, s.idx = fit(s.keys, n+1)[:0], fit(s.idx, n)[:0]
	for i, o := range rp.obj {
		s.freq[o]++
		if s.target[o] == 0 {
			continue
		}
		u := cfg.Policy.Utility(core.AccessStats{Freq: s.freq[o], LastAccess: rp.time[i]}, rp.objs[o], rp.means[o])
		if !(u > 0 && u <= math.MaxFloat64) {
			return false
		}
		s.keys = append(s.keys, math.Float64bits(u)) // ordered as u is, u being positive
		s.idx = append(s.idx, int32(i))
	}

	// Rank the keys; the stable sort breaks equal keys by request index,
	// which orders one object's keys exactly, but two objects with one
	// utility would make the greedy fill guess a tie core.Cache breaks
	// its own way.
	m := len(s.keys)
	s.keys2, s.idx2 = fit(s.keys2, n+1)[:m], fit(s.idx2, n)
	keys, idx, rank := radixSort(s.keys, s.idx, s.keys2, s.idx2[:m], &s.counts)
	for p := 1; p < m; p++ {
		if keys[p] == keys[p-1] && rp.obj[idx[p]] != rp.obj[idx[p-1]] {
			return false
		}
	}
	rank = rank[:n]
	for p, i := range idx {
		rank[i] = int32(p)
	}

	// Replay in request order: before each access its object's hit
	// bytes at every capacity, after it the fill that Access leaves.
	tree := fenwick(keys[:m+1])
	clear(tree)
	s.acc = fit(s.acc, len(members))
	acc := s.acc
	clear(acc)
	warm := int(cfg.WarmFraction * float64(n))
	var live int64    // targets of every object requested so far
	var total float64 // watched bytes of the measured requests
	for i, o := range rp.obj {
		t, prev, before := s.target[o], int32(-1), live
		var above, aboveAfter int64 // targets ranked above o's key, before and after
		if t > 0 {
			r := rank[i]
			if prev = s.last[o]; prev >= 0 {
				if r < prev {
					return false
				}
				if i >= warm {
					above = live - tree.sum(prev)
				}
				tree.add(prev, -t)
			} else {
				live += t
			}
			tree.add(r, t)
			s.last[o] = r
			if i >= warm {
				aboveAfter = live - tree.sum(r)
			}
		}
		if i < warm {
			continue
		}
		obj := rp.objs[o]
		watched := rp.watchedAt(i, obj.Size)
		total += float64(watched)
		var (
			delay, quality float64
			servable       bool
			scored         = int64(-1) // the hit bytes and bandwidth delay, quality and servable are for
			scoredBW       float64
		)
		// Members at one capacity each work out its hit bytes: a loop
		// over the distinct capacities with their members inside measured
		// 8 % slower on BenchmarkCapacityAxis's PB pass.
		for k := range members {
			cb := members[k].CacheBytes
			var hit, held int64
			if t > 0 {
				if prev >= 0 {
					hit = min(max(cb-above, 0), t)
				}
				held = min(max(cb-aboveAfter, 0), t)
			}
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

// fenwick is a binary indexed tree over ranks 0..len-2: add and sum
// (over ranks 0..i) in O(log n). Its nodes are uint64 so that it can
// live in a sort buffer; arithmetic modulo 2^64 leaves every sum that
// fits an int64, as byte counts do, exact.
type fenwick []uint64

func (f fenwick) add(i int32, d int64) {
	for j := int(i) + 1; j < len(f); j += j & -j {
		f[j] += uint64(d)
	}
}

func (f fenwick) sum(i int32) int64 {
	var s uint64
	for j := int(i) + 1; j > 0; j &= j - 1 {
		s += f[j]
	}
	return int64(s)
}
