package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"streamcache/internal/sim"
)

// Sharded execution: a sweep's rows carry stable global indices (their
// position in the unsharded deterministic stream), and a Shard selects
// the subset of indices one process computes. A shard owns whole
// groups, not rows: the points of a round that the arena scores
// together (one share key, sim.GroupOf) all go to one shard, so a
// sharded sweep replays each group once, as one process does. A static
// row is a group of its own, each goes to the least-loaded shard, and a
// round with no shared key is dealt round robin (index mod Count).
// Ownership is a pure function of the round's full point list, which
// every process builds identically, so the union of the shards' outputs
// is bit-identical to the unsharded stream for any Shard.Count — the
// multi-process analogue of the Parallelism guarantee. MergeShards
// reassembles the union.

// Shard identifies one of Count cooperating sweep processes. The zero
// value (and Count <= 1) means unsharded: this process owns every row.
// Index is zero-based.
type Shard struct {
	Index int
	Count int
}

// owned reports, for each point of a round (global indices
// base..base+len(pts)-1), whether this shard computes it.
func (sh Shard) owned(pts []planPoint, base int) []bool {
	own := make([]bool, len(pts))
	if sh.Count <= 1 {
		for i := range own {
			own[i] = true
		}
		return own
	}
	for i, o := range owners(pts, base, sh.Count) {
		own[i] = o == sh.Index
	}
	return own
}

// owners assigns each point of a round to one of count shards. A unit is
// a group of simulated points (sim.GroupOf) or a static row, and weighs
// its points. Units are dealt in order of first appearance: the u-th goes
// to the shard with the fewest points so far, a tie to the first tied
// shard from (base+u) mod count on. That is greedy list scheduling, so no
// two shards' loads differ by more than the largest unit; on a round of
// equal units it is round robin, so a round of single points is owned
// index mod count and figure9's groups of one e land where refined-e's
// and refined-esigma's do. It reads nothing but pts and base: not the
// arena, the resume journal or the exchange.
func owners(pts []planPoint, base, count int) []int {
	var cfgs []sim.HierarchyConfig
	for _, pt := range pts {
		if pt.cfg != nil {
			cfgs = append(cfgs, *pt.cfg)
		}
	}
	groups := sim.GroupOf(cfgs)
	unit, size := make([]int, len(pts)), map[int]int{} // a point's group, or -1-i: a unit of its own
	for i, pt := range pts {
		unit[i] = -1 - i
		if pt.cfg != nil {
			if groups[0] >= 0 {
				unit[i] = groups[0]
			}
			groups = groups[1:]
		}
		size[unit[i]]++
	}
	ownerOf, load, owner := map[int]int{}, make([]int, count), make([]int, len(pts))
	for i, u := range unit {
		if _, ok := ownerOf[u]; !ok {
			rr := (base + len(ownerOf)) % count
			o := rr
			for k := range count {
				if s := (rr + k) % count; load[s] < load[o] {
					o = s
				}
			}
			ownerOf[u], load[o] = o, load[o]+size[u]
		}
		owner[i] = ownerOf[u]
	}
	return owner
}

// rule names the ownership rule in a sharded run's fingerprints. A
// journal or collector session of shards that owned rows by another rule
// (index mod count, before shards owned groups; groups of flat oracle
// points only, before every simulated point had a share key; groups
// dealt round robin, unweighed; groups by points before a one-node
// hierarchy point was flat, which made the hierarchy's 1x1 rows one
// group rather than five) then refuses this binary's shards: mixed,
// some rows would be owned twice and some by no shard.
func (sh Shard) rule() string {
	if sh.Count <= 1 {
		return ""
	}
	return " owners=points/1node"
}

func (sh Shard) validate() error {
	if sh.Count < 0 || sh.Index < 0 {
		return fmt.Errorf("%w: shard %d/%d", ErrBadScale, sh.Index, sh.Count)
	}
	if sh.Count > 0 && sh.Index >= sh.Count {
		return fmt.Errorf("%w: shard index %d outside 0..%d", ErrBadScale, sh.Index, sh.Count-1)
	}
	return nil
}

// String renders the shard in the CLI's "index/count" form.
func (sh Shard) String() string {
	if sh.Count <= 1 {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", sh.Index, sh.Count)
}

// ParseShard parses the "-shard index/count" CLI form (zero-based
// index, e.g. "0/2" and "1/2" for a two-way split). The empty string
// means unsharded.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	idxStr, cntStr, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("experiments: shard %q not in index/count form", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
	if err != nil {
		return Shard{}, fmt.Errorf("experiments: bad shard index in %q: %w", s, err)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(cntStr))
	if err != nil {
		return Shard{}, fmt.Errorf("experiments: bad shard count in %q: %w", s, err)
	}
	sh := Shard{Index: idx, Count: cnt}
	if cnt < 1 {
		return Shard{}, fmt.Errorf("experiments: shard count %d < 1 in %q", cnt, s)
	}
	if err := sh.validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}
