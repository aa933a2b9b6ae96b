package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"streamcache/internal/sim"
)

// Sharded execution: a sweep's rows carry stable global indices (their
// position in the unsharded deterministic stream), and a Shard selects
// the subset of indices one process computes. A shard owns whole units,
// not rows, dealt once over the whole figure set: the points of every
// simulated table's coarse round, the set every process can build from
// its Scale alone, split into units by sim.UnitsOf — a family of the
// groups that take the capacity pass, or any other group — and each
// unit goes to the shard with the least weight (tape walks) so far. A
// point of a round whose share key the set holds follows its unit's
// owner, whatever table and round ask for it, so a sharded sweep ranks,
// passes and replays each group once, as one process does. Any other
// point (a refinement point at a new policy, a static row) is dealt
// within its round: its group to the shard with the fewest of the
// round's points so far, a round with no shared key round robin (index
// mod Count). Ownership is a pure function of the Scale and the round,
// which every process builds identically, so the union of the shards'
// outputs is bit-identical to the unsharded stream for any Shard.Count
// — the multi-process analogue of the Parallelism guarantee.
// MergeJournals reassembles the union from the shards' journals.

// Shard identifies one of Count cooperating sweep processes. The zero
// value (and Count <= 1) means unsharded: this process owns every row.
// Index is zero-based.
type Shard struct {
	Index int
	Count int
}

// owned reports, for each point of a round (global indices
// base..base+len(pts)-1), whether s.Shard computes it. An unsharded
// scale owns every point and builds no deal.
func (s Scale) owned(pts []planPoint, base int) ([]bool, error) {
	own := make([]bool, len(pts))
	if s.Shard.Count <= 1 {
		for i := range own {
			own[i] = true
		}
		return own, nil
	}
	d, err := s.deal()
	if err != nil {
		return nil, err
	}
	for i, o := range d.owners(pts, base) {
		own[i] = o == s.Shard.Index
	}
	return own, nil
}

// dealt is the deal of one scale's figure set among count shards:
// units of the set's points (sim.UnitsOf), each unit's owner, and the
// weight dealt to each shard.
type dealt struct {
	units sim.Units
	owner []int   // per unit
	load  []int64 // per shard
}

// deals memoises the deal per scale and shard count: every round of a
// sharded run reads it. A deal is a pure function of its key, so a hit
// is the deal a rebuild would give.
var deals = struct {
	sync.Mutex
	m map[dealKey]*dealt
}{m: map[dealKey]*dealt{}}

type dealKey struct {
	scale string // the fingerprint of the unsharded scale
	count int
}

// deal returns the deal of s's figure set among s.Shard.Count shards,
// building it on first use.
func (s Scale) deal() (*dealt, error) {
	count := s.Shard.Count
	s.Shard = Shard{}
	k := dealKey{s.Fingerprint(), count}
	deals.Lock()
	defer deals.Unlock()
	if d := deals.m[k]; d != nil {
		return d, nil
	}
	d, err := newDeal(s, Experiments(), count)
	if err != nil {
		return nil, err
	}
	deals.m[k] = d
	return d, nil
}

// newDeal deals the units of the coarse points of every simulated table
// of exps among count shards (dealWeights). It reads the scale alone —
// not the caller's arena, the journal, the exchange or the
// tables a run selects.
func newDeal(s Scale, exps []Experiment, count int) (*dealt, error) {
	s.Arena = sim.NewArena()
	var cfgs []sim.HierarchyConfig
	for _, e := range exps {
		if e.spec == nil {
			continue
		}
		p, err := e.spec.compile(s)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfgsOf(p.coarse)...)
	}
	d := &dealt{units: sim.UnitsOf(cfgs)}
	d.owner, d.load = dealWeights(d.units.Weight, count)
	return d, nil
}

// dealWeights deals units of the given weights among count shards in one
// greedy pass: the u-th unit goes to the shard with the least weight so
// far, a tie to the first tied shard from u mod count on. That is greedy
// list scheduling, so no two shards' loads differ by more than the
// heaviest unit.
func dealWeights(weight []int64, count int) (owner []int, load []int64) {
	owner, load = make([]int, len(weight)), make([]int64, count)
	for u, w := range weight {
		o := leastFrom(load, u%count)
		owner[u], load[o] = o, load[o]+w
	}
	return owner, load
}

// leastFrom returns the shard with the least load, a tie going to the
// first tied shard from rr on.
func leastFrom[T int | int64](load []T, rr int) int {
	o := rr
	for k := range load {
		if s := (rr + k) % len(load); load[s] < load[o] {
			o = s
		}
	}
	return o
}

// owners assigns each point of a round to a shard: a point whose share
// key the set holds to its unit's owner, any other as the round deals
// it. The round's own deal takes its groups (sim.GroupOf) and static
// rows as units, weighs them by their points and deals them in order of
// first appearance, the u-th to the shard with the fewest points so
// far, a tie to the first tied shard from (base+u) mod count on; on a
// round of equal units it is round robin, so a round of single points
// the set does not hold is owned index mod count. It reads nothing but
// the deal, pts and base: not the arena, the journal or the
// exchange.
func (d *dealt) owners(pts []planPoint, base int) []int {
	count := len(d.load)
	cfgs := cfgsOf(pts)
	groups, held := sim.GroupOf(cfgs), d.units.Of(cfgs)
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
			o := leastFrom(load, (base+len(ownerOf))%count)
			ownerOf[u], load[o] = o, load[o]+size[u]
		}
		owner[i] = ownerOf[u]
		if pts[i].cfg != nil {
			if u := held[0]; u >= 0 {
				owner[i] = d.owner[u]
			}
			held = held[1:]
		}
	}
	return owner
}

// Share is one shard's part of the set-wide deal: the units it owns
// and their weight, of the set's.
type Share struct {
	Units, SetUnits   int
	Weight, SetWeight int64
}

// Deal returns s.Shard's share of the set-wide deal. An unsharded scale
// builds no deal and reports the zero Share.
func (s Scale) Deal() (Share, error) {
	if s.Shard.Count <= 1 {
		return Share{}, nil
	}
	d, err := s.deal()
	if err != nil {
		return Share{}, err
	}
	sh := Share{SetUnits: len(d.owner), Weight: d.load[s.Shard.Index]}
	for u, o := range d.owner {
		sh.SetWeight += d.units.Weight[u]
		if o == s.Shard.Index {
			sh.Units++
		}
	}
	return sh, nil
}

// rule names the ownership rule in a sharded run's fingerprints. A
// journal or collector session of shards that owned rows by another rule
// (index mod count, before shards owned groups; groups of flat oracle
// points only, before every simulated point had a share key; groups
// dealt round robin, unweighed; groups by points before a one-node
// hierarchy point was flat; groups dealt by points within each round,
// before families were dealt once over the whole set) then refuses this
// binary's shards: mixed, some rows would be owned twice and some by no
// shard.
func (sh Shard) rule() string {
	if sh.Count <= 1 {
		return ""
	}
	return " owners=families/set"
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
