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
// rule for which points are scored together. ScorePending is the only
// code that reads or writes the answers: Run and RunGroup score what
// they are asked and never consult them.
package sim

import (
	"slices"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/workload"
)

// shareKey is everything besides capacity and variability that a
// member's Metrics depend on, for a configuration whose answers may be
// shared: the normalised workload, the policy and base model (by
// interface value: share comparable values, like the built-in policies
// and bandwidth.NLANR), the warm-up, the run count and the seed.
type shareKey struct {
	workload workload.Config
	policy   core.Policy
	base     bandwidth.Model
	warm     float64
	runs     int
	seed     int64
}

// shareOf returns the share key and member of a normalised cfg, or
// false when cfg's answers are never shared: an estimator or cache
// options make each call's result its own to compute (neither is
// comparable), and a policy, base model or variability that is not
// comparable cannot key a map.
func shareOf(cfg Config) (shareKey, Member, bool) {
	m := Member{cfg.CacheBytes, cfg.Variation}
	if cfg.Estimators != nil || len(cfg.CacheOptions) > 0 || !dynComparable(cfg.Policy) || !dynComparable(cfg.Base) || !dynComparable(cfg.Variation) {
		return shareKey{}, m, false
	}
	return shareKey{cfg.Workload, cfg.Policy, cfg.Base, cfg.WarmFraction, cfg.Runs, cfg.Seed}, m, true
}

// GroupOf is the one rule for which configurations are scored together:
// ids[i] is the group of cfgs[i] — the configurations with one share key
// — numbered in order of first appearance, or -1 for a configuration
// whose answers are never shared or that fails to normalise.
// ScorePending makes one call per group, and a sharded sweep hands each
// group of a round to one shard. It reads nothing but cfgs, so every
// process that holds the same list computes the same ids.
func GroupOf(cfgs []Config) []int {
	ids, _ := groupOf(cfgs)
	return ids
}

// groupOf is GroupOf that also returns the cfgs with their defaults set
// (withDefaults), so ScorePending normalises each cfg once.
func groupOf(cfgs []Config) (ids []int, norm []Config) {
	ids, norm = make([]int, len(cfgs)), make([]Config, len(cfgs))
	seen := map[shareKey]int{}
	for i, cfg := range cfgs {
		ids[i] = -1
		cfg, err := cfg.withDefaults()
		if err != nil {
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
	return ids, norm
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
// share key that its own round asks for. A configuration whose answers
// are never shared (an estimator, cache options, a policy, base model or
// variability that is not comparable) is not recorded.
func (a *Arena) Declare(cfg Config) error {
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
// and nothing is recorded, when cfg's answers are never shared. The
// caller holds a.store.
func (a *Arena) declare(cfg Config) (e *shareEntry, m Member, answered bool) {
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

// ScorePending is how a round of sweep points is scored together, and
// the only code that reads or writes the arena's answers: it groups the
// cfgs (GroupOf) and, one group after another, declares the group's
// members and scores every member of its share key still pending — the
// group's own and those other callers declared — in one RunGroup call at
// the given worker bound. ms[i] is cfgs[i]'s Metrics, or nil for a cfg
// that is never shared or fails to normalise, which the caller runs
// itself. The store lock is held throughout, so no member is scored
// twice; the cfgs whose member was answered before the call count as
// reused (Groups).
func (a *Arena) ScorePending(cfgs []Config, parallelism int) (ms []*Metrics, err error) {
	ids, norm := groupOf(cfgs)
	var groups [][]int // the cfgs of each group, by index
	for i, id := range ids {
		if id == len(groups) { // ids number groups by first appearance
			groups = append(groups, nil)
		}
		if id >= 0 {
			groups[id] = append(groups[id], i)
		}
	}
	ms = make([]*Metrics, len(cfgs))
	if len(groups) == 0 {
		return ms, nil // nothing to share: the store is not touched
	}
	a.store.Lock()
	defer a.store.Unlock()
	for _, is := range groups {
		var e *shareEntry
		members := make([]Member, len(is))
		for k, i := range is {
			var answered bool
			if e, members[k], answered = a.declare(norm[i]); answered {
				a.reused.Add(1)
			}
		}
		if len(e.pending) > 0 {
			cfg := norm[is[0]]
			cfg.Arena, cfg.Parallelism = a, parallelism
			scored, err := RunGroup(cfg, e.pending)
			if err != nil {
				return nil, err
			}
			for k, m := range e.pending {
				e.answers[m] = scored[k]
			}
			e.pending = nil
		}
		for k, i := range is {
			m := e.answers[members[k]]
			ms[i] = &m
		}
	}
	return ms, nil
}
