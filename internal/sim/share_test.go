package sim

import (
	"errors"
	"math/rand"
	"sync"
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
		for _, m := range members {
			cfg.CacheBytes, cfg.Variation = m.CacheBytes, m.Variation
			if err := a.Declare(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDeclaredMembersMatchRun is the sharing contract: with every
// member of the base configuration and of its near misses declared into
// one arena, each configuration's first call — a group of three of its
// members — then a Run of each member, then a group holding a member
// whose variability cannot key a map, answers exactly what a fresh Run
// does. Each shareable configuration's first call scores all of its
// declared members, so each of its nine Runs is answered by that call;
// the configurations with cache options or an estimator share nothing.
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
		cfg.Arena = a
		group := func(ms []Member) {
			t.Helper()
			got, err := RunGroup(cfg, ms)
			if err != nil {
				t.Fatal(err)
			}
			for k, m := range ms {
				if want := fresh(t, cfg, m); got[k] != want {
					t.Errorf("%s: member %d of %d (capacity %d, %T):\n got %+v\nwant %+v", name, k, len(ms), m.CacheBytes, m.Variation, got[k], want)
				}
			}
		}
		group(members[3:6])
		for _, m := range members {
			group([]Member{m})
		}
		group([]Member{members[0], {CacheBytes: cachePct(2), Variation: unkeyed{}}})
	}
	if _, _, _, reused := a.Groups(); reused != int64(shared*len(members)) {
		t.Errorf("%d members reused, want %d: the nine Runs of each of the %d shareable configurations", reused, shared*len(members), shared)
	}
}

// TestDeclaredMembersMatchRunConcurrent: every member of every near miss
// runs at once after all were declared; whichever call takes the lock
// first for a share key scores all nine of its members, the others wait
// for its answers, and each answer is a fresh Run's (run under -race).
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
		m    Member
		got  Metrics
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
				one := cfg
				one.CacheBytes, one.Variation, one.Arena, one.Parallelism = m.CacheBytes, m.Variation, a, 1
				got, err := Run(one)
				mu.Lock()
				defer mu.Unlock()
				results = append(results, result{name, m, got, err})
			}()
		}
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if want := fresh(t, cfgs[r.name], r.m); r.got != want {
			t.Errorf("%s at capacity %d, %T:\n got %+v\nwant %+v", r.name, r.m.CacheBytes, r.m.Variation, r.got, want)
		}
	}
	if _, _, _, reused := a.Groups(); reused != int64(shared*(len(members)-1)) {
		t.Errorf("%d members reused, want %d: all but the first call of each of the %d shareable configurations", reused, shared*(len(members)-1), shared)
	}
}

// TestScorePending: one call scores the key whose members two or more of
// a batch's configurations wait on, and each of those configurations'
// Run takes its answer as its own; a key with one such member is left to
// its Run, configurations never shared are not recorded, and one that
// fails to normalise reports its error through its own Run. Every answer
// is a fresh Run's.
func TestScorePending(t *testing.T) {
	at := func(cfg Config, pct float64, v bandwidth.Variability) Config {
		cfg.CacheBytes, cfg.Variation = cachePct(pct), v
		return cfg
	}
	pb := Config{Workload: workload.Config{NumObjects: 200, NumRequests: 4000}, Policy: core.NewPB(), Runs: 2, Seed: 3}
	ib, ewma, whole, bad := pb, pb, pb, pb
	ib.Policy = core.NewIB()
	ewma.Estimators = EWMAEstimator(0.3)
	whole.CacheOptions = []core.Option{core.WithWholeObjectEviction(true)}
	bad.Policy = nil
	batch := []Config{
		// one call
		at(pb, 0.5, nil), at(pb, 2, nil), at(pb, 2, bandwidth.MeasuredVariability()),
		// left to its Run
		at(ib, 2, nil),
		// never shared
		at(ewma, 0.5, nil), at(ewma, 2, nil), at(whole, 0.5, nil), at(whole, 2, nil),
		// fails to normalise
		at(bad, 2, nil),
	}
	a := NewArena()
	if n := a.ScorePending(batch, 2); n != 3 {
		t.Errorf("ScorePending answered %d configurations, want PB's 3", n)
	}
	if _, _, shared, _ := a.Groups(); shared != 1 {
		t.Errorf("shared = %d, want 1: PB's two members at 2 %% share a replay", shared)
	}
	if len(a.answers) != 2 {
		t.Errorf("%d share keys recorded, want PB's and IB's", len(a.answers))
	}
	for key, e := range a.answers {
		if want := map[core.Policy]int{pb.Policy: 3}[key.policy]; len(e.answers) != want {
			t.Errorf("%s: %d members answered, want %d", key.policy.Name(), len(e.answers), want)
		}
	}
	for _, cfg := range batch {
		cfg.Arena = a
		got, err := Run(cfg)
		if cfg.Policy == nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Errorf("Run of the configuration without a policy: %v, want ErrBadConfig", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(t, cfg, Member{cfg.CacheBytes, cfg.Variation}); got != want {
			t.Errorf("%s at %d, %T:\n got %+v\nwant %+v", cfg.Policy.Name(), cfg.CacheBytes, cfg.Variation, got, want)
		}
	}
	if _, _, _, reused := a.Groups(); reused != 0 {
		t.Errorf("%d members reused, want 0: each Run took the answer scored for it", reused)
	}
	one := batch[0]
	one.Arena = a
	if _, err := Run(one); err != nil {
		t.Fatal(err)
	}
	if _, _, _, reused := a.Groups(); reused != 1 {
		t.Errorf("%d members reused, want 1: a second Run takes another call's answer", reused)
	}
}

// unkeyed is constant bandwidth in a type that cannot key a map: a
// member under it is scored by the call that asks and remembered
// nowhere.
type unkeyed struct{ _ []float64 }

func (unkeyed) Ratio(*rand.Rand) float64 { return 1 }
func (unkeyed) CoV() float64             { return 0 }
