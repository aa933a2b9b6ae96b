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
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"streamcache/internal/core"
)

// RunCapacities returns, for each of capacities, the Metrics Run returns
// with CacheBytes set to it (cfg.CacheBytes itself is not read), bit for
// bit. A run seed is scored for all capacities in one pass over its tape
// when the configuration lets the pass be exact — the oracle estimator
// (nil Estimators), one shared Policy (nil PolicyFactory) that observes
// no evictions, no CacheOptions (byte-granular eviction), at least two
// capacities — and the seed's utilities are all finite, positive and
// distinct between objects; any other run seed replays its tape through
// a core.Cache per capacity, as Run does. Policy Utility and Target must
// be pure functions of their arguments, as every built-in policy's are.
// cfg.Arena's CapacityPasses counts which way each call went.
func RunCapacities(cfg Config, capacities []int64) ([]Metrics, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	for _, c := range capacities {
		if c < 0 {
			return nil, fmt.Errorf("%w: capacity %d", ErrBadConfig, c)
		}
	}
	var fellBack atomic.Int64
	ms, err := averageRuns(cfg, "run", func(seed int64) ([]Metrics, error) {
		rp, err := cfg.Arena.replay(cfg, seed)
		if err != nil {
			return nil, err
		}
		out := make([]Metrics, len(capacities))
		onePass, err := scoreReplay(cfg, rp, cfg.Arena.rates(cfg, seed, rp), capacities, out)
		if !onePass {
			fellBack.Add(1)
		}
		return out, err
	}, addEach, overEach)
	if fellBack.Load() == 0 {
		cfg.Arena.passes.Add(1)
	}
	cfg.Arena.fallbacks.Add(fellBack.Load())
	return ms, err
}

// addEach and overEach are Metrics.add and Metrics.over per capacity.
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

// admitsPass reports whether the configuration admits the capacity pass
// for n capacities. What it cannot see — the utilities of one seed —
// capacityPass checks itself.
func (c Config) admitsPass(n int) bool {
	_, observer := c.Policy.(core.EvictionObserver)
	return c.Estimators == nil && c.PolicyFactory == nil && !observer && len(c.CacheOptions) == 0 && n >= 2
}

// scoreReplay fills out[k] with the Metrics of one run of rp at
// capacities[k]: in one pass when it can, else with replayOnce per
// capacity. It reports which.
func scoreReplay(cfg Config, rp replay, inst []float64, capacities []int64, out []Metrics) (onePass bool, err error) {
	if cfg.admitsPass(len(capacities)) && capacityPass(cfg, rp, inst, capacities, out) {
		return true, nil
	}
	for k, c := range capacities {
		one := cfg
		one.CacheBytes = c
		if out[k], err = replayOnce(one, rp, inst); err != nil {
			return false, err
		}
	}
	return false, nil
}

// passScratch is everything one capacity pass mutates, pooled across
// runs like runScratch: per object, per keyed request (a request for an
// object whose target is > 0) and per capacity. Every slot is written
// or cleared before it is read.
type passScratch struct {
	target, freq []int64          // per object: clamped target; requests so far
	last         []int32          // per object: rank of its live key, -1 before its first
	keys, keys2  []uint64         // per keyed request: utility bits and the sort's other half, then the Fenwick tree
	idx, idx2    []int32          // per keyed request: request index and the sort's other half, then request -> rank
	acc          []capacityTotals // per capacity
	counts       [8][256]int32
}

// capacityTotals accumulates one capacity's measured requests in
// request order, as replayOnce does.
type capacityTotals struct {
	delay, quality, value, cached float64
	hits                          int
	evicted                       int64
}

var passPool = sync.Pool{New: func() any { return new(passScratch) }}

// fit returns s resliced to n, reusing its storage when it can.
func fit[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// capacityPass scores one run of rp at every capacity into out and
// reports true, or reports false, leaving out unspecified, when one of
// the seed's utilities is not finite and positive, two objects share one
// or an object's falls.
func capacityPass(cfg Config, rp replay, inst []float64, capacities []int64, out []Metrics) bool {
	s := passPool.Get().(*passScratch)
	defer passPool.Put(s)
	n, objects := len(rp.obj), len(rp.objs)

	// Every keyed request's post-access utility, as Access computes it.
	s.target, s.freq, s.last = fit(s.target, objects), fit(s.freq, objects), fit(s.last, objects)
	clear(s.freq)
	for o, obj := range rp.objs {
		s.target[o] = min(max(cfg.Policy.Target(obj, rp.means[o]), 0), obj.Size)
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
	s.acc = fit(s.acc, len(capacities))
	clear(s.acc)
	perRequest := drawsPerRequest(cfg.Variation)
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
		obj, watched := rp.objs[o], rp.watched[i]
		k := int(o)
		if perRequest {
			k = i
		}
		bw := inst[k]
		total += float64(watched)
		var (
			delay, quality float64
			servable       bool
			scored         = int64(-1) // the hit bytes delay, quality and servable are for
		)
		for c, cb := range capacities {
			var hit, held int64
			if t > 0 {
				if prev >= 0 {
					hit = min(max(cb-above, 0), t)
				}
				held = min(max(cb-aboveAfter, 0), t)
			}
			if hit != scored {
				delay, quality, servable = core.StartupDelay(obj, hit, bw), core.StreamQuality(obj, hit, bw), core.ImmediatelyServable(obj, hit, bw)
				scored = hit
			}
			a := &s.acc[c]
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

	requests := n - warm
	for c, a := range s.acc {
		out[c] = Metrics{Requests: requests, TotalAddedValue: a.value, EvictedBytes: a.evicted}
		if requests > 0 {
			out[c].AvgServiceDelay = a.delay / float64(requests)
			out[c].AvgStreamQuality = a.quality / float64(requests)
			out[c].HitRatio = float64(a.hits) / float64(requests)
		}
		if total > 0 {
			out[c].TrafficReductionRatio = a.cached / total
		}
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
