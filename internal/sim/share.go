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
// flat or hierarchy, oracle or estimator, has one: withDefaults refuses
// a policy or variability that cannot key a map, so each
// point takes one path — key, family, one scoring call — and every
// answer is stored. ScorePending is the only code that reads or writes
// the answers: Run, RunGroup and RunHierarchy score what they are asked
// and never consult them.
//
// The declared members are also the arena's view of the future: after
// each family of groups it scores, ScorePending releases every tape and
// bandwidth column that no pending member, no later group of the same
// call and no hold still reads (release).
package sim

import (
	"cmp"
	"maps"
	"slices"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/workload"
)

// shareOf returns the share key and member of a normalised cfg. The key
// is cfg itself with the arena and the worker bound zeroed, and with the
// member fields zeroed too where members share a cache trajectory: a
// flat configuration whose estimator does not observe what a request
// got (withDefaults drops a bandwidth-blind policy's). Any other — an
// observing estimator's, a hierarchy's — keeps its member in the key.
// Every normalised cfg keys a map: withDefaults refuses a policy or
// variability that is not a comparable value.
func shareOf(cfg HierarchyConfig) (HierarchyConfig, Member) {
	m := Member{cfg.CacheBytes, cfg.Variation}
	cfg.Arena, cfg.Parallelism = nil, 0
	if cfg.Levels == 0 && !cfg.observes() {
		cfg.CacheBytes, cfg.Variation = 0, nil
	}
	return cfg, m
}

// GroupOf is the one rule for which configurations are scored together:
// ids[i] is the group of cfgs[i] — the configurations with one share key
// — numbered in order of first appearance, or -1 for a configuration
// that fails to normalise.
// ScorePending scores each group in one call, one family of groups
// whose policies rank alike at a time, and a sharded sweep hands each
// group to one shard (UnitsOf). It reads nothing but cfgs, so every
// process that holds the same list computes the same ids.
func GroupOf(cfgs []HierarchyConfig) []int {
	ids, _, _ := groupOf(cfgs)
	return ids
}

// Units is how a sharded sweep splits a set of configurations — every
// point it will score — into the units it deals whole to its shards,
// and what each costs. The groups that take the capacity pass (familyOf
// ok, two or more distinct capacities in the set) are one unit per
// family, so one shard ranks each tape once for all of them; every other
// group is a unit of its own. Weight[u] counts unit u's tape walks: per
// run seed, one ranking plus one pass per group of a family, or one
// replay per distinct capacity of a group that replays. Units are
// numbered in order of first appearance. It is a function of the set
// alone, so every process that holds the same set computes the same
// units.
type Units struct {
	unit   map[HierarchyConfig]int // share key -> its unit
	Weight []int64
}

// UnitsOf returns the units of cfgs; a cfg that fails to normalise
// belongs to none.
func UnitsOf(cfgs []HierarchyConfig) Units {
	ids, norm, _ := groupOf(cfgs)
	var first []int            // per group: its first cfg
	caps := []map[int64]bool{} // per group: its distinct capacities
	for i, id := range ids {
		if id < 0 {
			continue
		}
		if id == len(first) {
			first, caps = append(first, i), append(caps, map[int64]bool{})
		}
		caps[id][norm[i].CacheBytes] = true
	}
	u := Units{unit: map[HierarchyConfig]int{}}
	fams := map[HierarchyConfig]int{} // family key -> its unit
	for g, i := range first {
		cfg, runs := norm[i], int64(norm[i].Runs)
		key, _ := shareOf(cfg)
		if fam, ok := familyOf(cfg); ok && len(caps[g]) >= 2 {
			f, ok := fams[fam]
			if !ok {
				f = len(u.Weight)
				fams[fam] = f
				u.Weight = append(u.Weight, runs) // the ranking
			}
			u.unit[key] = f
			u.Weight[f] += runs // the group's pass
			continue
		}
		u.unit[key] = len(u.Weight)
		u.Weight = append(u.Weight, runs*int64(len(caps[g])))
	}
	return u
}

// Of returns the unit of each of cfgs, or -1 for a cfg whose share key
// the set does not hold or that fails to normalise.
func (u Units) Of(cfgs []HierarchyConfig) []int {
	ids := make([]int, len(cfgs))
	for i, cfg := range cfgs {
		ids[i] = -1
		if cfg, err := cfg.withDefaults(); err == nil {
			key, _ := shareOf(cfg)
			if id, ok := u.unit[key]; ok {
				ids[i] = id
			}
		}
	}
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
		key, _ := shareOf(cfg)
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
// share key that its own round asks for.
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
// and the member, and reports whether the member was answered. The
// caller holds a.store.
func (a *Arena) declare(cfg HierarchyConfig) (e *shareEntry, m Member, answered bool) {
	key, m := shareOf(cfg)
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
// (GroupOf) and, one family of groups after another, declares each
// group's members and scores every member of its share key still
// pending — the group's own and those other callers declared — in one
// call at the given worker bound: RunGroup's for the flat groups of a
// family, RunHierarchy for a hierarchy point. A family is the groups
// whose keys differ only in policies that rank alike (familyOf), so each
// run seed ranks its tape once for all of them; any other group is a
// family of its own. Every answer is stored. ms[i] is cfgs[i]'s
// Metrics; a cfg that fails to normalise fails the call before anything
// is scored. The store lock is held throughout, so no member is scored
// twice; the cfgs whose member was answered before the call count as
// reused (Groups). After each family the call releases the tapes and
// columns nothing can still read.
func (a *Arena) ScorePending(cfgs []HierarchyConfig, parallelism int) (ms []Metrics, err error) {
	ids, norm, err := groupOf(cfgs)
	if err != nil {
		return nil, err
	}
	var groups [][]int // the cfgs of each group, by index
	for i, id := range ids {
		if id == len(groups) { // ids number groups by first appearance
			groups = append(groups, nil)
		}
		groups[id] = append(groups[id], i)
	}
	ms = make([]Metrics, len(cfgs))
	if len(groups) == 0 {
		return ms, nil // nothing to score: the store is not touched
	}
	var fams [][][]int                // each family's groups, in order of its first group
	seen := map[HierarchyConfig]int{} // family key -> its index in fams
	for _, is := range groups {
		if key, ok := familyOf(norm[is[0]]); ok {
			if f, ok := seen[key]; ok {
				fams[f] = append(fams[f], is)
				continue
			}
			seen[key] = len(fams)
		}
		fams = append(fams, [][]int{is})
	}
	a.store.Lock()
	defer a.store.Unlock()
	for f, fam := range fams {
		if err := a.scoreFamily(norm, fam, parallelism, ms); err != nil {
			return nil, err
		}
		a.release(norm, slices.Concat(fams[f+1:]...))
	}
	return ms, nil
}

// familyOf returns the family key of a normalised cfg — its share key
// with the policy replaced by its core.Ranker — or false where its group
// is a family of its own: a hierarchy never takes the capacity pass, nor
// does a configuration that does not let it be exact (takesPass).
func familyOf(cfg HierarchyConfig) (HierarchyConfig, bool) {
	if cfg.Levels != 0 || !cfg.takesPass() {
		return HierarchyConfig{}, false
	}
	key, _ := shareOf(cfg)
	key.Policy = core.Ranker(key.Policy)
	return key, true
}

// scoreFamily fills ms[i] for the cfgs of one family's groups (fam[j]
// lists group j's cfgs by index): it declares their members and scores
// every member of their share keys still pending, all the groups in one
// call. The caller holds a.store.
func (a *Arena) scoreFamily(norm []HierarchyConfig, fam [][]int, parallelism int, ms []Metrics) error {
	entries := make([]*shareEntry, len(fam))
	members := make([][]Member, len(fam))
	var cfgs []HierarchyConfig
	var pending [][]Member
	for j, is := range fam {
		members[j] = make([]Member, len(is))
		for k, i := range is {
			var answered bool
			if entries[j], members[j][k], answered = a.declare(norm[i]); answered {
				a.reused.Add(1)
			}
		}
		if e := entries[j]; len(e.pending) > 0 {
			cfg := norm[is[0]]
			cfg.Arena, cfg.Parallelism = a, parallelism
			cfgs, pending = append(cfgs, cfg), append(pending, e.pending)
		}
	}
	if len(cfgs) > 0 {
		scored, err := runFamilyOf(cfgs, pending)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if len(e.pending) == 0 {
				continue
			}
			for k, m := range e.pending {
				e.answers[m] = scored[0][k]
			}
			e.pending, scored = nil, scored[1:]
		}
	}
	for j, is := range fam {
		for k, i := range is {
			ms[i] = entries[j].answers[members[j][k]]
		}
	}
	return nil
}

// reads is what scoring one configuration reads from the arena: the
// tape of each of its run seeds and, for a flat configuration, the
// bandwidth column of its variability over each. It names them by the
// fields their keys hold — never the capacity or the policy — so the
// many points of a sweep fold into a few values.
type reads struct {
	workload  workload.Config // normalised, Seed zeroed: each run sets its own
	seed      int64
	runs      int
	variation bandwidth.Variability // nil where no memoized column is read
}

// readsOf returns what scoring the normalised cfg reads. A hierarchy
// reads tapes only.
func readsOf(cfg HierarchyConfig) reads {
	r := reads{workload: cfg.Workload, seed: cfg.Seed, runs: cfg.Runs}
	r.workload.Seed = 0
	if cfg.Levels == 0 {
		r.variation = cfg.Variation
	}
	return r
}

// Hold adds the tapes the cfgs read to the hold named owner, which
// keeps them, and every bandwidth column drawn over them, from release
// until Drop(owner). An adaptive table holds its coarse points' tapes,
// from the time it is declared until it ends: its refinement rounds ask
// for points no one declared, over those tapes and mostly over columns
// other tables drew — or drew in their own refinement rounds, which no
// one can name ahead either. A cfg that fails to normalise holds
// nothing.
func (a *Arena) Hold(owner string, cfgs []HierarchyConfig) {
	a.store.Lock()
	defer a.store.Unlock()
	h := a.holds[owner]
	if h == nil {
		h = map[reads]bool{}
		a.holds[owner] = h
	}
	for _, cfg := range cfgs {
		if cfg, err := cfg.withDefaults(); err == nil {
			r := readsOf(cfg)
			r.variation = nil // a held tape keeps all its columns
			h[r] = true
		}
	}
}

// Drop removes the hold named owner and releases what nothing else
// still reads.
func (a *Arena) Drop(owner string) {
	a.store.Lock()
	defer a.store.Unlock()
	delete(a.holds, owner)
	a.release(nil, nil)
}

// release drops every tape and bandwidth column that nothing can still
// read: no member pending under any share key, no cfg of the groups
// rest of the current call (norm[i] for each i in them; they may not be
// declared) and no hold names it, where a held tape keeps every column
// drawn over it. The set is derived from the declared state each time,
// so there is no count to keep in step. Every arena value is a pure
// function of its key: a release that comes too early costs a
// recompile, which Compiles counts, never a wrong byte. The caller
// holds a.store.
func (a *Arena) release(norm []HierarchyConfig, rest [][]int) {
	need := map[reads]bool{} // what is still read; true where a hold names its tapes
	read := func(cfg HierarchyConfig) {
		if r := readsOf(cfg); !need[r] {
			need[r] = false
		}
	}
	for key, e := range a.answers {
		for _, m := range e.pending {
			cfg := key
			cfg.CacheBytes, cfg.Variation = m.CacheBytes, m.Variation
			read(cfg)
		}
	}
	for _, is := range rest {
		for _, i := range is {
			read(norm[i])
		}
	}
	for _, h := range a.holds {
		maps.Copy(need, h)
	}
	tapes := map[workload.Config]bool{} // true for a held tape
	cols := map[rateKey]bool{}
	for r, held := range need {
		c := Config{Workload: r.workload}
		for run := range r.runs {
			key, err := c.tapeKey(SplitSeed(r.seed, int64(run)))
			if err != nil {
				continue // such a run compiles nothing
			}
			tapes[key] = tapes[key] || held
			if r.variation != nil {
				cols[rateKey{tape: key, variation: r.variation}] = true
			}
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	maps.DeleteFunc(a.tapes, func(k workload.Config, _ *memo[*tape]) bool {
		_, read := tapes[k]
		return !read
	})
	maps.DeleteFunc(a.cols, func(k rateKey, _ *memo[[]float64]) bool { return !cols[k] && !tapes[k.tape] })
}

// runFamilyOf returns, for each of cfgs, its members' Metrics of its
// runs, with CacheBytes and Variation set to the member's: runFamily's
// for flat cfgs (one family), one RunHierarchy each for a hierarchy's
// (a family of one).
func runFamilyOf(cfgs []HierarchyConfig, members [][]Member) ([][]Metrics, error) {
	if cfgs[0].Levels == 0 {
		flat := make([]Config, len(cfgs))
		for j, c := range cfgs {
			flat[j] = c.Config
		}
		return runFamily(flat, members)
	}
	c := cfgs[0]
	ms := make([]Metrics, len(members[0]))
	for k, m := range members[0] {
		one := c
		one.CacheBytes, one.Variation = m.CacheBytes, m.Variation
		var err error
		if ms[k], err = RunHierarchy(one); err != nil {
			return nil, err
		}
	}
	return [][]Metrics{ms}, nil
}
