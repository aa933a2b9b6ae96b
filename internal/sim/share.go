// Answers across tables: ScorePending scores each share key's pending
// members once and keeps their Metrics for the rounds that ask later.
//
// The tables of a figure set repeat one configuration under other cache
// sizes and variabilities: Figure 7 is Figure 5 under NLANR variability,
// and the coarse round of an adaptive sweep is a column of a fixed grid.
// Those rows are members of one group (capacity.go) that different
// rounds ask for, one table after another. A caller that knows every
// point ahead declares each one to the arena (Declare); the first round
// that hands a declared share key to ScorePending then scores every
// pending member of the key beside its own, in the same capacity pass or
// shared replays, and later rounds take the finished Metrics. The arena
// keeps Metrics, not trajectories. An answer is a pure function of its
// share key and member, so every member's Metrics are bit-identical
// whichever round scored them and whatever else that round scored
// (DESIGN.md §5a "Groups across calls"). The share key is also the one
// rule for which points are scored together, and every simulated point,
// flat or hierarchy, oracle or estimator, has one. ScorePending is the
// only code that reads or writes the answers: Run, RunGroup and
// RunHierarchy score what they are asked and never consult them.
package sim

import (
	"cmp"
	"slices"
)

// shareOf returns the share key and member of a normalised cfg, or
// false when its answer cannot be stored: a policy, base model or
// variability that is not comparable cannot key a map. The key is cfg
// itself with the arena and the worker bound zeroed, and with the member
// fields zeroed too where members share a cache trajectory: a flat
// configuration under the oracle, the branch group.score takes. Any
// other configuration — an estimator's, a hierarchy's — keeps its member
// in the key, a group of one.
func shareOf(cfg HierarchyConfig) (HierarchyConfig, Member, bool) {
	m := Member{cfg.CacheBytes, cfg.Variation}
	if !dynComparable(cfg.Policy) || !dynComparable(cfg.Base) || !dynComparable(cfg.Variation) {
		return HierarchyConfig{}, m, false
	}
	cfg.Arena, cfg.Parallelism = nil, 0
	if cfg.Levels == 0 && cfg.Estimator == nil {
		cfg.CacheBytes, cfg.Variation = 0, nil
	}
	return cfg, m, true
}

// GroupOf is the one rule for which configurations are scored together:
// ids[i] is the group of cfgs[i] — the configurations with one share key
// — numbered in order of first appearance, or -1 for a configuration
// that fails to normalise or whose answer cannot be stored.
// ScorePending makes one call per group, and a sharded sweep hands each
// group of a round to one shard. It reads nothing but cfgs, so every
// process that holds the same list computes the same ids.
func GroupOf(cfgs []HierarchyConfig) []int {
	ids, _, _ := groupOf(cfgs)
	return ids
}

// groupOf is GroupOf that also returns the cfgs with their defaults set
// (withDefaults), so ScorePending normalises each cfg once, and the
// first cfg's normalisation error.
func groupOf(cfgs []HierarchyConfig) (ids []int, norm []HierarchyConfig, first error) {
	ids, norm = make([]int, len(cfgs)), make([]HierarchyConfig, len(cfgs))
	seen := map[HierarchyConfig]int{}
	for i, cfg := range cfgs {
		ids[i] = -1
		cfg, err := cfg.withDefaults()
		if err != nil {
			first = cmp.Or(first, err)
			continue
		}
		norm[i] = cfg
		key, _, ok := shareOf(cfg)
		if !ok {
			continue
		}
		id, ok := seen[key]
		if !ok {
			id = len(seen)
			seen[key] = id
		}
		ids[i] = id
	}
	return ids, norm, first
}

// shareEntry is what an arena knows of one declared share key: the
// members declared and not yet scored, and the Metrics of every member
// a ScorePending call has scored.
type shareEntry struct {
	pending []Member
	answers map[Member]Metrics
}

// Declare records cfg's member — its CacheBytes and Variation — as one
// that a later ScorePending call will score with the members of cfg's
// share key that its own round asks for. A configuration whose answer
// cannot be stored (a policy, base model or variability that is not
// comparable) is not recorded.
func (a *Arena) Declare(cfg HierarchyConfig) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	a.store.Lock()
	defer a.store.Unlock()
	a.declare(cfg)
	return nil
}

// declare records a normalised cfg's member as pending under its share
// key unless it is pending or answered already, returns the key's entry
// and the member, and reports whether the member was answered; e is nil,
// and nothing is recorded, when cfg's answer cannot be stored. The
// caller holds a.store.
func (a *Arena) declare(cfg HierarchyConfig) (e *shareEntry, m Member, answered bool) {
	key, m, ok := shareOf(cfg)
	if !ok {
		return nil, m, false
	}
	e = a.answers[key]
	if e == nil {
		e = &shareEntry{answers: map[Member]Metrics{}}
		a.answers[key] = e
	}
	if _, answered = e.answers[m]; !answered && !slices.Contains(e.pending, m) {
		e.pending = append(e.pending, m)
	}
	return e, m, answered
}

// ScorePending is how a round of sweep points is scored, and the only
// code that reads or writes the arena's answers: it groups the cfgs
// (GroupOf) and, one group after another, declares the group's members
// and scores every member of its share key still pending — the group's
// own and those other callers declared — in one call at the given worker
// bound: RunGroup for a flat group, RunHierarchy for a hierarchy point.
// A cfg whose answer cannot be stored is scored alone and remembered
// nowhere. ms[i] is cfgs[i]'s Metrics; a cfg that fails to normalise
// fails the call before anything is scored. The store lock is held
// throughout, so no member is scored twice; the cfgs whose member was
// answered before the call count as reused (Groups).
func (a *Arena) ScorePending(cfgs []HierarchyConfig, parallelism int) (ms []Metrics, err error) {
	ids, norm, err := groupOf(cfgs)
	if err != nil {
		return nil, err
	}
	var groups [][]int // the cfgs of each group, by index, then each cfg of none alone
	for i, id := range ids {
		if id == len(groups) { // ids number groups by first appearance
			groups = append(groups, nil)
		}
		if id >= 0 {
			groups[id] = append(groups[id], i)
		}
	}
	for i, id := range ids {
		if id < 0 {
			groups = append(groups, []int{i})
		}
	}
	ms = make([]Metrics, len(cfgs))
	if len(groups) == 0 {
		return ms, nil // nothing to score: the store is not touched
	}
	a.store.Lock()
	defer a.store.Unlock()
	for _, is := range groups {
		cfg := norm[is[0]]
		cfg.Arena, cfg.Parallelism = a, parallelism
		if ids[is[0]] < 0 {
			if ms[is[0]], err = RunHierarchy(cfg); err != nil {
				return nil, err
			}
			continue
		}
		var e *shareEntry
		members := make([]Member, len(is))
		for k, i := range is {
			var answered bool
			if e, members[k], answered = a.declare(norm[i]); answered {
				a.reused.Add(1)
			}
		}
		if len(e.pending) > 0 {
			scored, err := cfg.runGroup(e.pending)
			if err != nil {
				return nil, err
			}
			for k, m := range e.pending {
				e.answers[m] = scored[k]
			}
			e.pending = nil
		}
		for k, i := range is {
			ms[i] = e.answers[members[k]]
		}
	}
	return ms, nil
}

// runGroup returns each member's Metrics of c's runs, with CacheBytes
// and Variation set to the member's: RunGroup's for a flat c, one
// RunHierarchy each for a hierarchy's.
func (c HierarchyConfig) runGroup(members []Member) ([]Metrics, error) {
	if c.Levels == 0 {
		return RunGroup(c.Config, members)
	}
	ms := make([]Metrics, len(members))
	for k, m := range members {
		one := c
		one.CacheBytes, one.Variation = m.CacheBytes, m.Variation
		var err error
		if ms[k], err = RunHierarchy(one); err != nil {
			return nil, err
		}
	}
	return ms, nil
}
