// Answers across calls: one RunGroup call scores the members other
// calls will ask for.
//
// The tables of a figure set repeat one configuration under other cache
// sizes and variabilities: Figure 7 is Figure 5 under NLANR variability,
// and the coarse round of an adaptive sweep is a column of a fixed grid.
// Those rows are members of one group (capacity.go) that different
// calls ask for, one table after another. A caller that knows every
// point ahead declares each one to the arena (Declare); the first
// RunGroup call on a declared share key then scores every declared
// member no call has claimed beside its own, in the same capacity pass
// or shared replays, and later calls take the finished Metrics. The
// arena keeps Metrics, not trajectories. An answer is a pure function
// of its share key and member, so every member's Metrics are
// bit-identical whichever call scored them and whatever else that call
// scored (DESIGN.md §5a "Groups across calls"). The share key is also
// the one rule for which points are scored together: a sweep round hands
// its points to ScorePending, which declares them and makes that first
// call for each key they share.
package sim

import (
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

// shareKeyOf returns the share key of a normalised cfg, or false when
// cfg's answers are never shared: an estimator or cache options make
// each call's result its own to compute (neither is comparable), and a
// policy or base model that is not comparable cannot key a map.
func shareKeyOf(cfg Config) (shareKey, bool) {
	if cfg.Estimators != nil || len(cfg.CacheOptions) > 0 || !dynComparable(cfg.Policy) || !dynComparable(cfg.Base) {
		return shareKey{}, false
	}
	return shareKey{cfg.Workload, cfg.Policy, cfg.Base, cfg.WarmFraction, cfg.Runs, cfg.Seed}, true
}

// shareOf returns the share key and member of a normalised cfg; ok is
// false when cfg's answers are never shared (shareKeyOf) or its
// variability cannot key a map.
func shareOf(cfg Config) (key shareKey, m Member, ok bool) {
	key, ok = shareKeyOf(cfg)
	m = member(cfg.CacheBytes, cfg.Variation)
	return key, m, ok && dynComparable(m.Variation)
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
// members declared and not yet claimed by a call, and the answer of
// every member a call has claimed.
type shareEntry struct {
	pending []Member
	answers map[Member]*answer
}

// answer is one member's Metrics (or the error of the call that scored
// it), final once done is closed.
type answer struct {
	done chan struct{} // one per call: closed once all its claims are stored
	m    Metrics
	err  error
}

// Declare records cfg's member — its CacheBytes and Variation — as one
// that a RunGroup call on cfg's share key will ask for, so that the
// first call on the key scores it with its own members. A configuration
// whose answers are never shared (an estimator, cache options, a policy,
// base model or variability that is not comparable) is not recorded.
// Only declared keys are remembered: a call on a key no Declare named
// scores its members afresh, as a caller timing the replay expects.
func (a *Arena) Declare(cfg Config) error {
	cfg.Arena = a
	cfg, err := cfg.normalize()
	if err == nil {
		a.declare(cfg)
	}
	return err
}

// declare records a normalised cfg's member as pending under its share
// key unless a call has claimed it, and returns the two; ok is false,
// and nothing is recorded, when cfg's answers are never shared.
func (a *Arena) declare(cfg Config) (key shareKey, m Member, ok bool) {
	key, m, ok = shareOf(cfg)
	if !ok {
		return key, m, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.answers[key]
	if e == nil {
		e = &shareEntry{answers: map[Member]*answer{}}
		a.answers[key] = e
	}
	if e.answers[m] == nil {
		e.pending = append(e.pending, m)
	}
	return key, m, true
}

// ScorePending is how a round of sweep points is scored together: it
// declares every cfg (Declare), groups the cfgs (GroupOf) and, one group
// after another, makes one RunGroup call at the given worker bound for
// each group that two or more of the cfgs' members still wait on — a
// call that also scores the key's members other callers declared. Each
// cfg's Run then takes its answer (a group's error included). A cfg
// that is never shared, or that fails to normalise, is left alone for
// its own Run to score or report. It returns how many cfgs have an
// answer waiting in the arena.
func (a *Arena) ScorePending(cfgs []Config, parallelism int) (answered int) {
	type batch struct {
		key     shareKey
		cfg     Config   // the group's first cfg
		members []Member // every cfg's in the group
	}
	var batches []*batch
	ids, norm := groupOf(cfgs)
	for i, id := range ids {
		if id < 0 {
			continue
		}
		cfg := norm[i]
		cfg.Arena, cfg.Parallelism = a, parallelism
		key, m, _ := a.declare(cfg)
		if id == len(batches) { // ids number groups by first appearance
			batches = append(batches, &batch{key: key, cfg: cfg})
		}
		batches[id].members = append(batches[id].members, m)
	}
	for _, b := range batches {
		var open []Member
		a.mu.Lock()
		for _, m := range b.members {
			if a.answers[b.key].answers[m] == nil {
				open = append(open, m)
			}
		}
		a.mu.Unlock()
		answered += len(b.members)
		if len(open) == 1 {
			answered-- // left to its own Run
		} else if len(open) > 1 {
			a.runShared(b.cfg, open) // an error is stored in the answers
			// Each open cfg's own Run takes the answer scored for it: no reuse.
			a.reused.Add(-int64(len(open)))
		}
	}
	return answered
}

// member is the Member at capacity c under variability v, nil being
// constant bandwidth as in Config.
func member(c int64, v bandwidth.Variability) Member {
	if v == nil {
		v = bandwidth.NoVariation{}
	}
	return Member{c, v}
}

// runShared is RunGroup on a normalised cfg whose share key was
// declared (ok false: it was not, or a member is one no map can key, and
// the call is runGroup's alone). Under the arena lock it takes the
// answer of every member another call has claimed and claims the rest,
// plus every pending declared member; it scores its claims in one group,
// stores them and only then waits for the answers it took — a call
// waits only on calls that claimed before it, so no two wait on each
// other.
func (a *Arena) runShared(cfg Config, members []Member) (ms []Metrics, ok bool, err error) {
	key, ok := shareKeyOf(cfg)
	if !ok {
		return nil, false, nil
	}
	for _, m := range members {
		if m.CacheBytes < 0 || !dynComparable(m.Variation) {
			return nil, false, nil // runGroup reports the one, scores the other afresh
		}
	}
	a.mu.Lock()
	e := a.answers[key]
	if e == nil {
		a.mu.Unlock()
		return nil, false, nil
	}
	done := make(chan struct{})
	var (
		claimed []Member
		mine    []*answer // the answer of each claimed member
	)
	claim := func(m Member) *answer {
		m = member(m.CacheBytes, m.Variation)
		r := e.answers[m]
		if r == nil {
			r = &answer{done: done}
			e.answers[m] = r
			claimed, mine = append(claimed, m), append(mine, r)
		}
		return r
	}
	took := make([]*answer, len(members))
	for k, m := range members {
		took[k] = claim(m)
	}
	for _, m := range e.pending {
		claim(m)
	}
	e.pending = nil
	a.mu.Unlock()

	if len(claimed) > 0 {
		scored, err := runGroup(cfg, claimed)
		for k, r := range mine {
			if err != nil {
				r.err = err
				continue
			}
			r.m = scored[k]
		}
		close(done)
	}
	ms = make([]Metrics, len(members))
	var reused int64
	for k, r := range took {
		<-r.done
		if r.err != nil {
			return nil, true, r.err
		}
		if r.done != done {
			reused++
		}
		ms[k] = r.m
	}
	a.reused.Add(reused)
	return ms, true, nil
}
