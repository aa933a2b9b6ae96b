package sim

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/trace"
	"streamcache/internal/workload"
)

// nearMisses are a base configuration and, for each field of the share
// key, one that differs from it in that alone: declared into one arena,
// no two may take each other's answers. Each is a share key of its own;
// EWMA's and the hierarchy's hold their member too, while the
// underestimate's and the probe's members share one trajectory per
// capacity, as the base's do.
func nearMisses(t *testing.T, wl workload.Config) map[string]HierarchyConfig {
	t.Helper()
	hybrid := func(e float64) core.Policy {
		p, err := core.NewHybrid(e)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := HierarchyConfig{Config: Config{Workload: wl, Policy: hybrid(0.5), Runs: 2, Seed: 3}}
	cfgs := map[string]HierarchyConfig{"base": base}
	for name, change := range map[string]func(*HierarchyConfig){
		"seed":      func(c *HierarchyConfig) { c.Seed = 4 },
		"runs":      func(c *HierarchyConfig) { c.Runs = 3 },
		"alpha":     func(c *HierarchyConfig) { c.Workload.ZipfAlpha = 1.1 },
		"e":         func(c *HierarchyConfig) { c.Policy = hybrid(0.6) },
		"whole":     func(c *HierarchyConfig) { c.WholeObjectEviction = true },
		"ewma":      func(c *HierarchyConfig) { c.Estimator = EWMA{0.3} },
		"under":     func(c *HierarchyConfig) { c.Estimator = Underestimate{0.5} },
		"probe":     func(c *HierarchyConfig) { c.Estimator = ActiveProbe{0.1} },
		"hierarchy": func(c *HierarchyConfig) { c.Levels, c.Edges = 1, 2 },
	} {
		c := base
		change(&c)
		cfgs["near-"+name] = c
	}
	return cfgs
}

// ownsTrajectory reports whether each member of cfg is a group of its
// own: under an estimator that observes or in a hierarchy. Only the
// other members of one key share a call.
func ownsTrajectory(cfg HierarchyConfig) bool { return cfg.observes() || cfg.Levels != 0 }

// shareMembers are each configuration's members: three capacities under
// three variabilities, two of them lognormal and so drawing per request.
func shareMembers() []Member {
	var ms []Member
	for _, v := range []bandwidth.Variability{nil, bandwidth.MeasuredVariability(), bandwidth.NLANRVariability()} {
		ms = append(ms, atCapacities([]int64{cachePct(0.5), cachePct(2), cachePct(10)}, v)...)
	}
	return ms
}

// fresh is cfg's Metrics at member m from a call of its own: a private
// arena, nothing declared.
func fresh(t *testing.T, cfg HierarchyConfig, m Member) Metrics {
	t.Helper()
	cfg.CacheBytes, cfg.Variation, cfg.Arena = m.CacheBytes, m.Variation, nil
	want, err := RunHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// declareAll declares every member of every configuration into a.
func declareAll(t *testing.T, a *Arena, cfgs map[string]HierarchyConfig, members []Member) {
	t.Helper()
	for _, cfg := range cfgs {
		for _, one := range cfgsAt(cfg, members...) {
			if err := a.Declare(one); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkAnswers requires every answer ScorePending gave for cfgs to be a
// fresh run's.
func checkAnswers(t *testing.T, name string, cfgs []HierarchyConfig, answers []Metrics) {
	t.Helper()
	for k, cfg := range cfgs {
		if want := fresh(t, cfg, Member{cfg.CacheBytes, cfg.Variation}); answers[k] != want {
			t.Errorf("%s: member %d of %d (capacity %d, %T):\n got %+v\nwant %+v", name, k, len(cfgs), cfg.CacheBytes, cfg.Variation, answers[k], want)
		}
	}
}

// cfgsAt is cfg at each member.
func cfgsAt(cfg HierarchyConfig, ms ...Member) []HierarchyConfig {
	cfgs := make([]HierarchyConfig, len(ms))
	for k, m := range ms {
		cfgs[k] = cfg
		cfgs[k].CacheBytes, cfgs[k].Variation = m.CacheBytes, m.Variation
	}
	return cfgs
}

// TestDeclaredMembersMatchRun is the sharing contract: with every
// member of the base configuration and of its near misses declared into
// one arena, each configuration's first ScorePending call — three of its
// members — then a call for each member answers exactly what a fresh run
// does. A configuration whose members share a trajectory has all of its
// declared members scored by its first call, so each later call is
// answered from the store; an EWMA or hierarchy configuration's first
// call scores the three it asks for, and the rest are scored when asked.
func TestDeclaredMembersMatchRun(t *testing.T) {
	wl := testWorkload()
	if raceBuild() {
		wl = workload.Config{NumObjects: 100, NumRequests: 2000}
	}
	cfgs := nearMisses(t, wl)
	members := shareMembers()
	a := NewArena()
	declareAll(t, a, cfgs, members)
	var want int64
	for name, cfg := range cfgs {
		score := func(batch []HierarchyConfig) {
			t.Helper()
			got, err := a.ScorePending(batch, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkAnswers(t, name, batch, got)
		}
		score(cfgsAt(cfg, members[3:6]...))
		for _, m := range members {
			score(cfgsAt(cfg, m))
		}
		if ownsTrajectory(cfg) {
			want += 3 // the first call's three, asked again
		} else {
			want += int64(len(members))
		}
	}
	if _, _, _, reused := a.Groups(); reused != want {
		t.Errorf("%d members reused, want %d: the single calls answered by an earlier call", reused, want)
	}
}

// TestDeclaredMembersMatchRunConcurrent: every member of every near miss
// is asked for at once, each in a ScorePending call of its own, after
// all were declared. Each share key's members are scored by exactly one
// call, the first to take the store lock: where nine members share a
// key, every other call is answered from the store (reused), and one
// group call per key shares six replays (nine members at three
// capacities). Each answer is a fresh run's (run under -race).
func TestDeclaredMembersMatchRunConcurrent(t *testing.T) {
	wl := workload.Config{NumObjects: 200, NumRequests: 4000}
	if raceBuild() {
		wl = workload.Config{NumObjects: 100, NumRequests: 2000}
	}
	cfgs := nearMisses(t, wl)
	members := shareMembers()
	a := NewArena()
	declareAll(t, a, cfgs, members)
	type result struct {
		name string
		cfg  HierarchyConfig
		got  Metrics
		err  error
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
		shared  int64 // the configurations whose nine members share a key
	)
	for name, cfg := range cfgs {
		if !ownsTrajectory(cfg) {
			shared++
		}
		for _, m := range members {
			wg.Add(1)
			go func() {
				defer wg.Done()
				one := cfgsAt(cfg, m)
				got, err := a.ScorePending(one, 1)
				mu.Lock()
				defer mu.Unlock()
				if err == nil {
					results = append(results, result{name, one[0], got[0], nil})
				} else {
					results = append(results, result{name: name, err: err})
				}
			}()
		}
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		checkAnswers(t, r.name, []HierarchyConfig{r.cfg}, []Metrics{r.got})
	}
	_, _, sharedReplays, reused := a.Groups()
	if want := shared * int64(len(members)-3); sharedReplays != want {
		t.Errorf("%d shared replays, want %d: one call of nine members at three capacities per shared key", sharedReplays, want)
	}
	if want := shared * int64(len(members)-1); reused != want {
		t.Errorf("%d members reused, want %d: all but the first call of each of the %d shared keys", reused, want, shared)
	}
}

// TestScorePending: one call scores every share key a batch's
// configurations ask for — one-member keys, an estimator's and a
// hierarchy's included — answers each of them and records every answer;
// a configuration that fails to normalise fails the call. Every answer is a fresh
// run's. A second call for an answered member is reused from the store,
// while a Run of it replays afresh and counts nothing: Run never reads
// the store.
func TestScorePending(t *testing.T) {
	targets := new(atomic.Int64)
	pb := HierarchyConfig{Config: Config{Workload: workload.Config{NumObjects: 200, NumRequests: 4000}, Policy: countingPolicy{core.NewPB(), targets}, Runs: 2, Seed: 3}}
	ib, ewma, whole, tier, bad := pb, pb, pb, pb, pb
	ib.Policy = core.NewIB()
	ewma.Estimator = EWMA{0.3}
	whole.WholeObjectEviction = true
	tier.Levels, tier.Edges = 1, 2
	bad.Policy = nil
	none := Member{cachePct(0.5), nil}
	two, twoMeasured := Member{cachePct(2), nil}, Member{cachePct(2), bandwidth.MeasuredVariability()}
	batch := slices.Concat(
		cfgsAt(pb, none, two, twoMeasured), // one call
		cfgsAt(ib, two),                    // one call of one member
		cfgsAt(ewma, none, two),            // a call each: the member is in the key
		cfgsAt(whole, none, two),           // one call, one replay per capacity
		cfgsAt(tier, two),                  // one RunHierarchy call
	)
	a := NewArena()
	got, err := a.ScorePending(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, "batch", batch, got)
	if _, _, shared, reused := a.Groups(); shared != 1 || reused != 0 {
		t.Errorf("shared = %d, reused = %d; want 1 (PB's two members at 2 %% share a replay) and 0", shared, reused)
	}
	if len(a.answers) != 6 {
		t.Errorf("%d share keys recorded, want PB's, IB's, the two EWMA members', whole-object eviction's and the hierarchy's", len(a.answers))
	}
	for key, e := range a.answers {
		want := 1
		switch {
		case ownsTrajectory(key):
			if key.CacheBytes == 0 {
				t.Errorf("%+v: an estimator's or a hierarchy's key drops its member", key)
			}
		case key.WholeObjectEviction:
			want = 2
		case key.Policy == pb.Policy:
			want = 3
		}
		if len(e.answers) != want || len(e.pending) != 0 {
			t.Errorf("%s (estimator %v, whole %v, levels %d): %d members answered, %d pending; want %d and 0",
				key.Policy.Name(), key.Estimator, key.WholeObjectEviction, key.Levels, len(e.answers), len(e.pending), want)
		}
	}
	if _, err := a.ScorePending(append(batch[:1:1], bad), 2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("ScorePending with a configuration without a policy: %v, want ErrBadConfig before anything is scored", err)
	}
	bad.Arena = a
	if _, err := Run(bad.Config); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Run of the configuration without a policy: %v, want ErrBadConfig", err)
	}

	again, err := a.ScorePending(batch[:1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, reused := a.Groups(); reused != 1 || again[0] != got[0] {
		t.Errorf("a second call for PB's first member: reused = %d, answer %+v; want 1 and %+v", reused, again[0], got[0])
	}

	one := batch[0].Config
	one.Arena = a
	before := targets.Load()
	run, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if run != got[0] {
		t.Errorf("Run of an answered member:\n got %+v\nwant %+v", run, got[0])
	}
	if targets.Load() == before {
		t.Error("Run of an answered member asked its policy no target: it took the stored answer instead of replaying")
	}
	if _, _, _, reused := a.Groups(); reused != 1 {
		t.Errorf("%d members reused after a Run, want 1: Run reuses nothing", reused)
	}
}

// TestScorePendingFamilies: one call asks for every member of the base
// configuration and of each near miss, so its groups form families — the
// base's hybrid and near-e's, whose policies differ only in e, rank each
// run seed's tape once for both; every near miss in a field of the
// family key ranks alone, and an estimator's, whole-object eviction's
// and the hierarchy's groups never rank. Every answer is a fresh run's,
// the near-e group scored beside the base's though the batch asks for it
// later, and no tape is compiled twice: each family releases only what
// the later ones do not read.
func TestScorePendingFamilies(t *testing.T) {
	wl := workload.Config{NumObjects: 200, NumRequests: 4000}
	cfgs := nearMisses(t, wl)
	names := slices.Sorted(maps.Keys(cfgs))
	var batch []HierarchyConfig
	for _, name := range names {
		batch = append(batch, cfgsAt(cfgs[name], shareMembers()...)...)
	}
	a := NewArena()
	got, err := a.ScorePending(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, "batch", batch, got)
	// base and near-e: 2 runs for both; near-seed and -alpha: 2 each;
	// near-runs: 3.
	if ranks := a.Ranks(); ranks != 9 {
		t.Errorf("%d rankings, want 9: one per run seed of each family that takes the pass", ranks)
	}
	// The base's 2 run seeds, near-seed's 2, near-runs' third and
	// near-alpha's 2.
	if tapes, _ := a.Compiles(); tapes != 7 {
		t.Errorf("%d tapes compiled, want 7: a family released a tape a later family reads", tapes)
	}
}

// TestUnitsOf: the groups of a set that take the capacity pass are one
// unit per family, weighed one ranking plus one pass per group per run
// seed; every other group is a unit of its own, weighed one replay per
// distinct capacity per seed. A point whose share key the set holds is
// in its unit at any capacity; any other point is in none.
func TestUnitsOf(t *testing.T) {
	wl := workload.Config{NumObjects: 200, NumRequests: 4000}
	at := func(p core.Policy, est Estimator, pcts ...float64) []HierarchyConfig {
		var cfgs []HierarchyConfig
		for _, pct := range pcts {
			cfgs = append(cfgs, HierarchyConfig{Config: Config{Workload: wl, Policy: p, Estimator: est, CacheBytes: cachePct(pct), Runs: 2}})
		}
		return cfgs
	}
	hybrid := func(e float64) core.Policy {
		p, err := core.NewHybrid(e)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	u := UnitsOf(slices.Concat(
		at(core.NewPB(), nil, 0.5, 2, 10),  // unit 0, with IB: one family
		at(core.NewIF(), nil, 0.5, 2),      // unit 1: IF ranks apart
		at(core.NewIB(), nil, 0.5, 2, 2),   // unit 0
		at(hybrid(0.5), nil, 2),            // unit 2: one capacity, it replays
		at(core.NewPB(), EWMA{0.3}, 2, 10), // units 3 and 4: each member a key
		at(core.NewGDS(), nil, 0.5, 2, 10), // unit 5: GDS ages, it replays
	))
	if want := []int64{2 * 3, 2 * 2, 2 * 1, 2, 2, 2 * 3}; !slices.Equal(u.Weight, want) {
		t.Errorf("unit weights %v, want %v", u.Weight, want)
	}
	probe := slices.Concat(
		at(core.NewIB(), nil, 5),
		at(hybrid(0.5), nil, 10),
		at(hybrid(0.7), nil, 2),
		at(core.NewPB(), EWMA{0.3}, 5),
		[]HierarchyConfig{{Config: Config{Workload: wl, CacheBytes: cachePct(2)}}}, // no policy
	)
	if got, want := u.Of(probe), []int{0, 2, -1, -1, -1}; !slices.Equal(got, want) {
		t.Errorf("units of the probes %v, want %v", got, want)
	}
}

// TestScorePendingHoldsLaterGroups: within one ScorePending call on an
// arena nothing was declared to, a tape or column the call's later
// groups read is not released when an earlier group that read it is
// scored. Four groups over two workloads in three families — PB alone,
// then PB and IB on the second workload, then IB-V, which ranks apart,
// on the first workload again — compile each tape and column once, and
// the call leaves nothing behind.
func TestScorePendingHoldsLaterGroups(t *testing.T) {
	const runs = 2
	w1, w2 := testWorkload(), testWorkload()
	w2.ZipfAlpha = 1.1
	at := func(w workload.Config, p core.Policy, pct float64, v bandwidth.Variability) HierarchyConfig {
		return HierarchyConfig{Config: Config{Workload: w, Policy: p, CacheBytes: cachePct(pct), Variation: v, Runs: runs, Seed: 5}}
	}
	cfgs := []HierarchyConfig{
		at(w1, core.NewPB(), 2, nil),
		at(w2, core.NewPB(), 2, nil),
		at(w1, core.NewIBV(), 2, nil),
		at(w1, core.NewIBV(), 5, nil),
		at(w2, core.NewIB(), 2, bandwidth.NLANRVariability()),
	}
	a := NewArena()
	if _, err := a.ScorePending(cfgs, 2); err != nil {
		t.Fatal(err)
	}
	// Tapes: two workloads x runs. Columns: constant bandwidth over
	// both workloads, NLANR variability over the second.
	if tapes, rates := a.Compiles(); tapes != 2*runs || rates != 3*runs {
		t.Errorf("compiled %d tapes and %d columns, want %d and %d: a later group recompiled what an earlier one released", tapes, rates, 2*runs, 3*runs)
	}
	if tapes, cols := a.Live(); tapes != 0 || cols != 0 {
		t.Errorf("%d tapes and %d columns live after the call, want none: nothing is declared or held", tapes, cols)
	}
}

// countingPolicy is a policy that counts the targets asked of it.
type countingPolicy struct {
	core.Policy
	targets *atomic.Int64
}

func (p countingPolicy) Target(obj core.Object, bw float64) int64 {
	p.targets.Add(1)
	return p.Policy.Target(obj, bw)
}

// TestUnkeyableValuesRefused: every configuration keys the arena, so a
// policy or variability whose value cannot key a map is ErrBadConfig at
// every way in — each simulator, each arena method that takes a
// configuration, and Trace for the variability a trace.GenConfig holds —
// and hashing it never panics. RunGroup reads its variabilities from its
// members, so its bad variability is a member's. Declare and
// ScorePending come first: a value that slips through panics there in
// the test's own goroutine, where the failure is named, not in a run's.
func TestUnkeyableValuesRefused(t *testing.T) {
	good := HierarchyConfig{Config: Config{
		Workload: workload.Config{NumObjects: 50, NumRequests: 500}, CacheBytes: cachePct(2), Policy: core.NewPB(), Seed: 3,
	}}
	type call struct {
		name string
		do   func(a *Arena, cfg HierarchyConfig) error
	}
	calls := []call{
		{"Declare", func(a *Arena, cfg HierarchyConfig) error { return a.Declare(cfg) }},
		{"ScorePending", func(a *Arena, cfg HierarchyConfig) error {
			_, err := a.ScorePending([]HierarchyConfig{good, cfg}, 1)
			return err
		}},
		{"Run", func(a *Arena, cfg HierarchyConfig) error {
			cfg.Arena = a
			_, err := Run(cfg.Config)
			return err
		}},
		{"RunGroup", func(a *Arena, cfg HierarchyConfig) error {
			members := []Member{{cachePct(1), nil}, {cfg.CacheBytes, cfg.Variation}}
			cfg.Arena, cfg.Variation = a, nil
			_, err := RunGroup(cfg.Config, members)
			return err
		}},
		{"RunHierarchy", func(a *Arena, cfg HierarchyConfig) error {
			cfg.Arena, cfg.Levels, cfg.Edges = a, 1, 2
			_, err := RunHierarchy(cfg)
			return err
		}},
		{"Trace", func(a *Arena, cfg HierarchyConfig) error {
			_, err := a.Trace(trace.GenConfig{Entries: 10, Servers: 2, Variation: cfg.Variation})
			return err
		}},
	}
	for _, bad := range []struct {
		field string
		set   func(*HierarchyConfig)
	}{
		{"Policy", func(c *HierarchyConfig) { c.Policy = unkeyedPolicy{Policy: core.NewPB()} }},
		{"Variation", func(c *HierarchyConfig) { c.Variation = unkeyedVariation{} }},
	} {
		cfg := good
		bad.set(&cfg)
		for _, c := range calls {
			if c.name == "Trace" && bad.field == "Policy" {
				continue // a trace has no policy
			}
			t.Run(bad.field+"/"+c.name, func(t *testing.T) {
				a := NewArena()
				if err := c.do(a, cfg); !errors.Is(err, ErrBadConfig) {
					t.Errorf("%s with a %s that cannot key a map: %v, want ErrBadConfig", c.name, bad.field, err)
				}
				if tapes, rates := a.Compiles(); tapes != 0 || rates != 0 || len(a.answers) != 0 {
					t.Errorf("%s compiled %d tapes and %d columns and recorded %d share keys, want nothing", c.name, tapes, rates, len(a.answers))
				}
			})
		}
	}
}

// unkeyedPolicy and unkeyedVariation are a policy and a variability in
// types that cannot key a map.
type (
	unkeyedPolicy struct {
		core.Policy
		_ []float64
	}
	unkeyedVariation struct{ _ []float64 }
)

func (unkeyedVariation) Ratio(*rand.Rand) float64 { return 1 }
func (unkeyedVariation) CoV() float64             { return 0 }
