package sim

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/units"
	"streamcache/internal/workload"
)

// nearMisses are a base configuration and, for each field of the share
// key and each reason a configuration is never shared, one that differs
// from it in that alone: declared into one arena, no two may take each
// other's answers. shared counts the shareable ones.
func nearMisses(t *testing.T, wl workload.Config) (cfgs map[string]Config, shared int) {
	t.Helper()
	hybrid := func(e float64) core.Policy {
		p, err := core.NewHybrid(e)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	slow, err := bandwidth.NewEmpirical([]bandwidth.CDFPoint{{X: units.KBps(10), P: 0}, {X: units.KBps(120), P: 1}})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Workload: wl, Policy: hybrid(0.5), Runs: 2, Seed: 3}
	cfgs = map[string]Config{"base": base}
	for name, change := range map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed = 4 },
		"runs":    func(c *Config) { c.Runs = 3 },
		"warm":    func(c *Config) { c.WarmFraction = 0.3 },
		"alpha":   func(c *Config) { c.Workload.ZipfAlpha = 1.1 },
		"e":       func(c *Config) { c.Policy = hybrid(0.6) },
		"base":    func(c *Config) { c.Base = slow },
		"options": func(c *Config) { c.CacheOptions = []core.Option{core.WithWholeObjectEviction(true)} },
		"ewma":    func(c *Config) { c.Estimators = EWMAEstimator(0.3) },
	} {
		c := base
		change(&c)
		cfgs["near-"+name] = c
	}
	return cfgs, len(cfgs) - 2
}

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
func fresh(t *testing.T, cfg Config, m Member) Metrics {
	t.Helper()
	cfg.CacheBytes, cfg.Variation, cfg.Arena = m.CacheBytes, m.Variation, nil
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// declareAll declares every member of every configuration into a.
func declareAll(t *testing.T, a *Arena, cfgs map[string]Config, members []Member) {
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
// fresh Run's, and answers to be nil exactly for the cfgs unshared
// names.
func checkAnswers(t *testing.T, name string, cfgs []Config, answers []*Metrics, unshared func(Config) bool) {
	t.Helper()
	for k, cfg := range cfgs {
		got := answers[k]
		if got == nil {
			if !unshared(cfg) {
				t.Errorf("%s: member %d of %d (capacity %d, %T) has no answer", name, k, len(cfgs), cfg.CacheBytes, cfg.Variation)
			}
			continue
		}
		if unshared(cfg) {
			t.Errorf("%s: member %d of %d (capacity %d, %T) is never shared, yet answered", name, k, len(cfgs), cfg.CacheBytes, cfg.Variation)
		}
		if want := fresh(t, cfg, Member{cfg.CacheBytes, cfg.Variation}); *got != want {
			t.Errorf("%s: member %d of %d (capacity %d, %T):\n got %+v\nwant %+v", name, k, len(cfgs), cfg.CacheBytes, cfg.Variation, *got, want)
		}
	}
}

// cfgsAt is cfg at each member.
func cfgsAt(cfg Config, ms ...Member) []Config {
	cfgs := make([]Config, len(ms))
	for k, m := range ms {
		cfgs[k] = cfg
		cfgs[k].CacheBytes, cfgs[k].Variation = m.CacheBytes, m.Variation
	}
	return cfgs
}

// neverShared reports whether a cfg of the near miss named name gets no
// answer: the near misses with cache options or an estimator share
// nothing, nor does a member whose variability cannot key a map.
func neverShared(name string) func(Config) bool {
	return func(cfg Config) bool {
		_, isUnkeyed := cfg.Variation.(unkeyed)
		return name == "near-options" || name == "near-ewma" || isUnkeyed
	}
}

// TestDeclaredMembersMatchRun is the sharing contract: with every
// member of the base configuration and of its near misses declared into
// one arena, each configuration's first ScorePending call — three of its
// members — then a call for each member, then one holding a member whose
// variability cannot key a map, answers exactly what a fresh Run does.
// Each shareable configuration's first call scores all of its declared
// members, so each later call is answered from the store; the
// configurations with cache options or an estimator, and the unkeyed
// member, get no answer.
func TestDeclaredMembersMatchRun(t *testing.T) {
	wl := testWorkload()
	if raceBuild() {
		wl = workload.Config{NumObjects: 100, NumRequests: 2000}
	}
	cfgs, shared := nearMisses(t, wl)
	members := shareMembers()
	a := NewArena()
	declareAll(t, a, cfgs, members)
	for name, cfg := range cfgs {
		score := func(batch []Config) {
			t.Helper()
			got, err := a.ScorePending(batch, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkAnswers(t, name, batch, got, neverShared(name))
		}
		score(cfgsAt(cfg, members[3:6]...))
		for _, m := range members {
			score(cfgsAt(cfg, m))
		}
		score(cfgsAt(cfg, members[0], Member{CacheBytes: cachePct(2), Variation: unkeyed{}}))
	}
	if _, _, _, reused := a.Groups(); reused != int64(shared*(len(members)+1)) {
		t.Errorf("%d members reused, want %d: the nine single calls and the unkeyed call's keyed member of each of the %d shareable configurations", reused, shared*(len(members)+1), shared)
	}
}

// TestDeclaredMembersMatchRunConcurrent: every member of every near miss
// is asked for at once, each in a ScorePending call of its own, after
// all were declared. Each share key's nine members are scored by exactly
// one call, the first to take the store lock: every other call is
// answered from the store (reused), and one group call per key shares
// six replays (nine members at three capacities). Each answer is a fresh
// Run's (run under -race).
func TestDeclaredMembersMatchRunConcurrent(t *testing.T) {
	wl := workload.Config{NumObjects: 200, NumRequests: 4000}
	if raceBuild() {
		wl = workload.Config{NumObjects: 100, NumRequests: 2000}
	}
	cfgs, shared := nearMisses(t, wl)
	members := shareMembers()
	a := NewArena()
	declareAll(t, a, cfgs, members)
	type result struct {
		name string
		cfg  Config
		got  *Metrics
		err  error
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
	)
	for name, cfg := range cfgs {
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
		checkAnswers(t, r.name, []Config{r.cfg}, []*Metrics{r.got}, neverShared(r.name))
	}
	_, _, sharedReplays, reused := a.Groups()
	if want := int64(shared * (len(members) - 3)); sharedReplays != want {
		t.Errorf("%d shared replays, want %d: one call of nine members at three capacities per shareable configuration", sharedReplays, want)
	}
	if reused != int64(shared*(len(members)-1)) {
		t.Errorf("%d members reused, want %d: all but the first call of each of the %d shareable configurations", reused, shared*(len(members)-1), shared)
	}
}

// TestScorePending: one call scores every share key a batch's
// configurations ask for, one-member keys included, and answers each of
// them; configurations never shared are not recorded, and they and one
// that fails to normalise get no answer, their own Run scoring or
// reporting them. Every answer is a fresh Run's. A second call for an
// answered member is reused from the store, while a Run of it replays
// afresh and counts nothing: Run never reads the store.
func TestScorePending(t *testing.T) {
	targets := new(atomic.Int64)
	pb := Config{Workload: workload.Config{NumObjects: 200, NumRequests: 4000}, Policy: countingPolicy{core.NewPB(), targets}, Runs: 2, Seed: 3}
	ib, ewma, whole, bad := pb, pb, pb, pb
	ib.Policy = core.NewIB()
	ewma.Estimators = EWMAEstimator(0.3)
	whole.CacheOptions = []core.Option{core.WithWholeObjectEviction(true)}
	bad.Policy = nil
	none := Member{cachePct(0.5), nil}
	two, twoMeasured := Member{cachePct(2), nil}, Member{cachePct(2), bandwidth.MeasuredVariability()}
	batch := slices.Concat(
		cfgsAt(pb, none, two, twoMeasured), // one call
		cfgsAt(ib, two),                    // one call of one member
		cfgsAt(ewma, none, two),            // never shared
		cfgsAt(whole, none, two),           // never shared
		cfgsAt(bad, two),                   // fails to normalise
	)
	a := NewArena()
	got, err := a.ScorePending(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, "batch", batch, got, func(cfg Config) bool {
		return cfg.Estimators != nil || cfg.CacheOptions != nil || cfg.Policy == nil
	})
	if _, _, shared, reused := a.Groups(); shared != 1 || reused != 0 {
		t.Errorf("shared = %d, reused = %d; want 1 (PB's two members at 2 %% share a replay) and 0", shared, reused)
	}
	if len(a.answers) != 2 {
		t.Errorf("%d share keys recorded, want PB's and IB's", len(a.answers))
	}
	for key, e := range a.answers {
		if want := map[core.Policy]int{pb.Policy: 3, ib.Policy: 1}[key.policy]; len(e.answers) != want || len(e.pending) != 0 {
			t.Errorf("%s: %d members answered, %d pending; want %d and 0", key.policy.Name(), len(e.answers), len(e.pending), want)
		}
	}
	bad.Arena = a
	if _, err := Run(bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Run of the configuration without a policy: %v, want ErrBadConfig", err)
	}

	again, err := a.ScorePending(batch[:1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, reused := a.Groups(); reused != 1 || again[0] == nil || *again[0] != *got[0] {
		t.Errorf("a second call for PB's first member: reused = %d, answer %v; want 1 and %+v", reused, again[0], *got[0])
	}

	one := batch[0]
	one.Arena = a
	before := targets.Load()
	run, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if run != *got[0] {
		t.Errorf("Run of an answered member:\n got %+v\nwant %+v", run, *got[0])
	}
	if targets.Load() == before {
		t.Error("Run of an answered member asked its policy no target: it took the stored answer instead of replaying")
	}
	if _, _, _, reused := a.Groups(); reused != 1 {
		t.Errorf("%d members reused after a Run, want 1: Run reuses nothing", reused)
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

// unkeyed is constant bandwidth in a type that cannot key a map: a
// member under it is scored by the call that asks and remembered
// nowhere.
type unkeyed struct{ _ []float64 }

func (unkeyed) Ratio(*rand.Rand) float64 { return 1 }
func (unkeyed) CoV() float64             { return 0 }
