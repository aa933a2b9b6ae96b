package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/workload"
)

// paperWorkload is Table 1's full size: what every figure replays.
func paperWorkload() workload.Config {
	return workload.Config{NumObjects: 5000, NumRequests: 100000}
}

// paperCapacities are 0, the scale's five cache fractions of the
// catalog's unique bytes and more than all of them.
func paperCapacities(t testing.TB, a *Arena, wl workload.Config) []int64 {
	t.Helper()
	wl.Seed = SplitSeed(1, 0)
	w, err := a.Workload(wl)
	if err != nil {
		t.Fatal(err)
	}
	total := w.TotalUniqueBytes()
	caps := []int64{0}
	for _, f := range []float64{0.005, 0.02, 0.05, 0.1, 0.169} {
		caps = append(caps, int64(f*float64(total)))
	}
	return append(caps, 2*total)
}

// atCapacities is one member per capacity, all at variability v.
func atCapacities(caps []int64, v bandwidth.Variability) []Member {
	ms := make([]Member, len(caps))
	for k, c := range caps {
		ms[k] = Member{CacheBytes: c, Variation: v}
	}
	return ms
}

// checkGroup scores one run of rp for members, member k reading
// bandwidth column cols[k], requires every Metrics field to equal a
// lone one-column replay's (loneReplay) for each member, and reports
// whether the pass scored it.
func checkGroup(t *testing.T, cfg Config, rp *tape, members []Member, cols []column) (onePass bool) {
	t.Helper()
	g, err := newGroup(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	sorted := make([]column, len(cols))
	for k, i := range g.order {
		sorted[k] = cols[i]
	}
	out, passed := make([]Metrics, len(members)), make([]bool, 1)
	if _, err := scoreSeed([]Config{cfg}, []group{g}, rp, sorted, out, passed); err != nil {
		t.Fatal(err)
	}
	onePass = passed[0]
	for k, m := range g.members {
		if want := loneReplay(t, cfg, rp, m.CacheBytes, sorted[k]); out[k] != want {
			t.Errorf("%s, member %d of %d (capacity %d, %T, one pass %v):\n got %+v\nwant %+v", cfg.Policy.Name(), g.order[k], len(members), m.CacheBytes, m.Variation, onePass, out[k], want)
		}
	}
	return onePass
}

// loneReplay is the Metrics of one run of rp through a core.Cache of
// the given capacity, scored from col: what Run does. Under the oracle
// it must equal the same replay under perRequestMeans, the oracle's
// prices as a per-request column, which sends every request through the
// cache: replayColumns and the pass both skip the requests whose
// per-object target is 0, so that replay is the reference neither
// skip can reach.
func loneReplay(t *testing.T, cfg Config, rp *tape, capacity int64, col column) Metrics {
	t.Helper()
	var want, every [1]Metrics
	if err := replayColumns(cfg, rp, capacity, []column{col}, want[:]); err != nil {
		t.Fatal(err)
	}
	if cfg.Estimator == nil {
		perRequest := cfg
		perRequest.Estimator = perRequestMeans{}
		if err := replayColumns(perRequest, rp, capacity, []column{col}, every[:]); err != nil {
			t.Fatal(err)
		}
		if every[0] != want[0] {
			t.Errorf("%s at capacity %d: oracle replay %+v != every request through the cache %+v", cfg.Policy.Name(), capacity, want[0], every[0])
		}
	}
	return want[0]
}

// checkFamily scores one group per policy over rp as one family — each
// group with members and cols, under the oracle, byte-granular eviction
// and cfg's warm-up — through scoreSeed, requires every Metrics field to
// equal a lone one-column replay's for each member, and returns which
// groups the pass scored. The policies must rank alike (core.Ranker).
func checkFamily(t *testing.T, cfg Config, rp *tape, policies []core.Policy, members []Member, cols []column) []bool {
	t.Helper()
	g, err := newGroup(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	sorted := make([]column, len(cols))
	for k, i := range g.order {
		sorted[k] = cols[i]
	}
	cfgs := make([]Config, len(policies))
	for j, p := range policies {
		if cfgs[j], err = (Config{Policy: p, Arena: cfg.Arena}).normalize(); err != nil {
			t.Fatal(err)
		}
	}
	out, onePass := make([]Metrics, len(policies)*len(members)), make([]bool, len(policies))
	if _, err := scoreSeed(cfgs, slices.Repeat([]group{g}, len(policies)), rp, slices.Repeat(sorted, len(policies)), out, onePass); err != nil {
		t.Fatal(err)
	}
	for j, c := range cfgs {
		for k, m := range g.members {
			if got, want := out[j*len(members)+k], loneReplay(t, c, rp, m.CacheBytes, sorted[k]); got != want {
				t.Errorf("%s in a family of %d, member %d (capacity %d, one pass %v):\n got %+v\nwant %+v", c.Policy.Name(), len(policies), g.order[k], m.CacheBytes, onePass[j], got, want)
			}
		}
	}
	return onePass
}

// raceBuild reports whether the race detector is compiled in: it slows
// a replay about tenfold (and sees one goroutine in these), and its
// sync.Pool drops a quarter of what is put back.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// namedPolicies are the configurations of every policy PolicyByName
// knows.
func namedPolicies(t testing.TB, cfg Config) map[string]Config {
	t.Helper()
	out := map[string]Config{}
	for _, name := range axisPolicies {
		p, err := core.PolicyByName(name, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Policy = p
		out[name] = c
	}
	return out
}

// TestCapacityPassMatchesRunOnce is the pass's exactness contract on
// paper-size tapes: for every policy PolicyByName knows, under constant,
// NLANR and measured variability, over three run seeds, each capacity's
// Metrics equal a lone replay's field for field — EvictedBytes included —
// and the policies the pass cannot score exactly report a fallback: IF
// and LFU (integer utilities always tie), the GreedyDual family (the
// cache ages its keys), the EWMA estimator and whole-object eviction. A
// constructed tie — two objects with one path mean and one request
// count — must fall back too. (Under -race: a tenth of the tape, one
// seed.)
func TestCapacityPassMatchesRunOnce(t *testing.T) {
	arena := NewArena()
	wl, seeds := paperWorkload(), int64(3)
	if raceBuild() {
		wl, seeds = testWorkload(), 1
	}
	caps := paperCapacities(t, arena, wl)
	onePass := map[string]bool{"PB": true, "IB": true, "PB-V": true, "IB-V": true, "LRU": true, "HYBRID": true, "HYBRID-V": true}
	type axisCase struct {
		name     string
		cfg      Config
		wantPass bool
	}
	var cases []axisCase
	named := namedPolicies(t, Config{Workload: wl})
	for _, name := range axisPolicies {
		cases = append(cases, axisCase{name, named[name], onePass[name]})
	}
	cases = append(cases,
		axisCase{"PB/ewma", Config{Workload: wl, Policy: core.NewPB(), Estimator: EWMA{0.3}}, false},
		axisCase{"PB/whole-object", Config{Workload: wl, Policy: core.NewPB(), WholeObjectEviction: true}, false},
	)
	for _, v := range []struct {
		name string
		v    bandwidth.Variability
	}{{"none", bandwidth.NoVariation{}}, {"nlanr", bandwidth.NLANRVariability()}, {"measured", bandwidth.MeasuredVariability()}} {
		for _, c := range cases {
			t.Run(c.name+"/"+v.name, func(t *testing.T) {
				t.Parallel()
				cfg := c.cfg
				cfg.Variation, cfg.Arena, cfg.Seed = v.v, arena, 1
				cfg, err := cfg.normalize()
				if err != nil {
					t.Fatal(err)
				}
				for r := range seeds {
					seed := SplitSeed(cfg.Seed, r)
					rp, err := arena.tapeOf(cfg, seed)
					if err != nil {
						t.Fatal(err)
					}
					col := arena.column(cfg, seed, rp)
					cols := slices.Repeat([]column{col}, len(caps))
					if onePass := checkGroup(t, cfg, rp, atCapacities(caps, v.v), cols); onePass != c.wantPass {
						t.Errorf("seed %d scored in one pass = %v, want %v", seed, onePass, c.wantPass)
					}
				}
			})
		}
	}

	t.Run("tie", func(t *testing.T) {
		// A and B share a path mean and alternate, so each request of one
		// ties the other's utility: core.Cache keeps whichever came first
		// (it evicts only strictly lower utility), a greedy fill would
		// rank the later one higher.
		obj := func(id int) core.Object {
			return core.Object{ID: id, Size: 1000, Duration: 10, Rate: 100, Value: 1}
		}
		rp := &tape{
			objs:  []core.Object{obj(0), obj(1)},
			obj:   []uint32{0, 1, 0, 1, 0, 1},
			time:  []float64{1, 2, 3, 4, 5, 6},
			means: []float64{20, 20},
		}
		cfg, err := Config{Policy: core.NewPB()}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		col := column{inst: rp.means}
		if checkGroup(t, cfg, rp, atCapacities([]int64{0, 500, 1000, 1500, 3000}, nil), slices.Repeat([]column{col}, 5)) {
			t.Error("a utility tie was scored in one pass")
		}
	})

	t.Run("family-tie", func(t *testing.T) {
		// PB and IB share one ranking by F/b. B's path is twice A's, so
		// B's second request ties A's first. IB caches both and must fall
		// back; PB caches only A (B's path outruns its rate: target 0),
		// so the tie is none of its business and it takes the pass.
		obj := func(id int) core.Object {
			return core.Object{ID: id, Size: 1000, Duration: 10, Rate: 100, Value: 1}
		}
		rp := &tape{
			objs:  []core.Object{obj(0), obj(1), obj(2)},
			obj:   []uint32{0, 1, 1, 2, 0, 2, 1, 0, 2, 2},
			time:  []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			means: []float64{75, 150, 40},
		}
		cfg, err := Config{Policy: core.NewPB()}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		col := column{inst: rp.means}
		onePass := checkFamily(t, cfg, rp, []core.Policy{core.NewPB(), core.NewIB()}, atCapacities([]int64{0, 500, 1000, 1500, 3000}, nil), slices.Repeat([]column{col}, 5))
		if !onePass[0] || onePass[1] {
			t.Errorf("one pass: PB %v, IB %v; want PB's pass to ignore the tie of an object it does not cache, and IB to fall back", onePass[0], onePass[1])
		}
	})

	// The warm-up boundary: the pass starts from the tree the warm-up
	// leaves, built from each object's last warm-up key, and walks only
	// the measured requests. Every object here is cached (its path is
	// slower than its rate) and no two utilities tie, so each tape takes
	// the pass.
	for _, tc := range []struct {
		name string
		obj  []uint32
	}{
		{"boundary/one-request", []uint32{0}},     // warm-up 0
		{"boundary/two-requests", []uint32{0, 1}}, // warm-up 1
		{"boundary/three-requests", []uint32{0, 1, 0}},
		// 2 arrives after the warm-up, between 1's first and last keys.
		{"boundary/first-measured", []uint32{0, 1, 1, 0, 2, 0, 2, 1}},
		// 1 is requested twice in the warm-up and never after it.
		{"boundary/warm-up-only", []uint32{1, 0, 1, 0, 2, 0, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obj := func(id int) core.Object {
				return core.Object{ID: id, Size: 1000, Duration: 10, Rate: 100, Value: 1}
			}
			rp := &tape{
				objs:  []core.Object{obj(0), obj(1), obj(2)},
				obj:   tc.obj,
				means: []float64{20, 35, 27},
			}
			for i := range rp.obj {
				rp.time = append(rp.time, float64(i+1))
			}
			cfg, err := Config{Policy: core.NewPB()}.normalize()
			if err != nil {
				t.Fatal(err)
			}
			col := column{inst: rp.means}
			if !checkGroup(t, cfg, rp, atCapacities([]int64{0, 300, 700, 1200, 1700, 3000}, nil), slices.Repeat([]column{col}, 6)) {
				t.Error("fell back")
			}
		})
	}
}

// fallingPB is PB but for its utility, which falls on every fourth
// access of an object: a comparable policy the cache does not age, so
// only the pass's own check can refuse it.
type fallingPB struct{}

func (fallingPB) Name() string { return "PB-FALLING" }

func (fallingPB) Utility(st core.AccessStats, _ core.Object, bw float64) float64 {
	f := float64(st.Freq)
	if st.Freq%4 == 0 {
		f -= 2.5
	}
	return f / bw
}

func (fallingPB) Target(obj core.Object, bw float64) int64 { return core.NewPB().Target(obj, bw) }

// TestCapacityPassRefusesFallingUtility: a utility that falls breaks
// the greedy fill (DESIGN.md §5a, property 2), so under the oracle every
// run seed of a cache-size group falls back, and each member still
// equals a lone Run field for field.
func TestCapacityPassRefusesFallingUtility(t *testing.T) {
	arena := NewArena()
	cfg := Config{Workload: testWorkload(), Policy: fallingPB{}, Runs: 2, Seed: 3, Arena: arena}
	members := atCapacities([]int64{cachePct(0.5), cachePct(2), cachePct(10)}, nil)
	got, err := RunGroup(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	if passes, fallbacks, _, _ := arena.Groups(); passes != 0 || fallbacks != 2 {
		t.Errorf("Groups = %d passes, %d fallbacks; want both seeds to fall back", passes, fallbacks)
	}
	for k, m := range members {
		one := cfg
		one.CacheBytes = m.CacheBytes
		want, err := Run(one)
		if err != nil {
			t.Fatal(err)
		}
		if got[k] != want {
			t.Errorf("capacity %d:\n got %+v\nwant %+v", m.CacheBytes, got[k], want)
		}
	}
}

// TestFenwickBuildMatchesAdds: the linear build leaves, node for node,
// the tree that one add per slot leaves, so every sum agrees — for
// sizes around powers of two and slot sets from full to sparse.
func TestFenwickBuildMatchesAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 1023, 1024, 1025} {
		for _, every := range []int{1, 2, 7} {
			added, built := make(fenwick, n+1), make(fenwick, n+1)
			for i := range n {
				if rng.Intn(every) != 0 {
					continue
				}
				v := rng.Int63n(1 << 40)
				added.add(int32(i), v)
				built[i+1] = uint64(v)
			}
			built.build()
			if !slices.Equal(built, added) {
				t.Errorf("n %d, one slot in %d: built %v, added %v", n, every, built, added)
				continue
			}
			for i := range n {
				if b, a := built.sum(int32(i)), added.sum(int32(i)); b != a {
					t.Errorf("n %d, one slot in %d: sum(%d) = %d built, %d added", n, every, i, b, a)
				}
			}
		}
	}
}

// TestPBEndStateIsSection23Optimum ties the simulator to the paper's
// theory rather than to itself. PB's utility F/b and target
// ceil((r-b)T), capped at the size, are the profit ratio and the item
// weight of Section 2.3's fractional knapsack, and under the oracle the
// cache at capacity C is the greedy fill by utility (DESIGN.md §5a). So
// after the last request a PB core.Cache holds
// core.OptimalPlacement(objects, final request counts, path means, C),
// but for the rounding of the one item the knapsack splits: at most one
// object may differ, by at most one byte. Three run seeds at the five
// paper cache fractions on paper-size tapes (a tenth of the tape under
// -race).
func TestPBEndStateIsSection23Optimum(t *testing.T) {
	arena := NewArena()
	wl := paperWorkload()
	if raceBuild() {
		wl = testWorkload()
	}
	caps := paperCapacities(t, arena, wl)
	cfg, err := Config{Workload: wl, Policy: core.NewPB(), Arena: arena}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	for r := range int64(3) {
		seed := SplitSeed(1, r)
		rp, err := arena.tapeOf(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		requests := make([]float64, len(rp.objs))
		for _, o := range rp.obj {
			requests[o]++
		}
		for _, capacity := range caps[1 : len(caps)-1] {
			c, err := core.New(capacity, cfg.Policy, core.WithExpectedObjects(len(rp.objs)))
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range rp.obj {
				c.Access(rp.objs[o], rp.means[o], rp.time[i])
			}
			opt, err := core.OptimalPlacement(rp.objs, requests, rp.means, capacity)
			if err != nil {
				t.Fatal(err)
			}
			differ := 0
			for _, obj := range rp.objs {
				got, want := c.CachedBytes(obj.ID), opt[obj.ID]
				if got == want {
					continue
				}
				if differ++; differ > 1 || got-want > 1 || want-got > 1 {
					t.Errorf("seed %d, capacity %d: object %d holds %d bytes, the Section 2.3 optimum %d (%d objects differ so far)", seed, capacity, obj.ID, got, want, differ)
					break
				}
			}
		}
	}
}

// groupVariations are the variabilities TestGroupMatchesRun mixes in
// one group: constant bandwidth (one column entry per object), the two
// calibrated models, and lognormal ratios that draw per request — at
// sigma 0 every draw is the path mean, so only the indexing differs
// from constant bandwidth.
func groupVariations(t testing.TB) []bandwidth.Variability {
	t.Helper()
	flat, err := bandwidth.NewLognormalRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := bandwidth.NewLognormalRatio(0.4)
	if err != nil {
		t.Fatal(err)
	}
	return []bandwidth.Variability{bandwidth.NoVariation{}, bandwidth.MeasuredVariability(), bandwidth.NLANRVariability(), flat, wide}
}

// TestGroupMatchesRun is RunGroup's exactness contract: every member's
// Metrics, EvictedBytes included, equal sim.Run's at that CacheBytes
// and Variation — for every policy PolicyByName knows × the oracle,
// EWMA, underestimating and probing estimators × byte-granular and
// whole-object eviction, in a group of the five groupVariations at the
// mid capacity and in one of all five at each of the seven
// paperCapacities under the oracle, at two of them under an estimator.
// (Under -race: a tenth of the tape.)
func TestGroupMatchesRun(t *testing.T) {
	arena := NewArena()
	// No estimator's group takes the capacity pass: EWMA's members
	// replay alone, one column to a core.Cache, and the underestimate's
	// and the probe's one replay per capacity, so those cases need
	// neither the seven capacities nor the paper tape: they check what
	// is shared and what is not at two capacities, at a tenth of the
	// tape (a hundredth under -race).
	oracleWL, estimatorWL := paperWorkload(), testWorkload()
	if raceBuild() {
		oracleWL, estimatorWL = testWorkload(), workload.Config{NumObjects: 100, NumRequests: 2000}
	}
	vars := groupVariations(t)
	estimators := []struct {
		name string
		e    Estimator
	}{{"oracle", nil}, {"ewma", EWMA{0.3}}, {"underestimate", Underestimate{0.5}}, {"probe", ActiveProbe{0.1}}}
	for _, est := range estimators {
		wl := oracleWL
		if est.e != nil {
			wl = estimatorWL
		}
		caps := paperCapacities(t, arena, wl)
		mid := len(caps) / 2
		if est.e != nil {
			caps, mid = caps[mid-1:mid+1], 1
		}
		named := namedPolicies(t, Config{Workload: wl, Runs: 1, Seed: 1, Parallelism: 1, Arena: arena})
		for _, name := range axisPolicies {
			for _, whole := range []bool{false, true} {
				cfg := named[name]
				cfg.Estimator, cfg.WholeObjectEviction = est.e, whole
				t.Run(fmt.Sprintf("%s/%s/whole=%v", name, est.name, whole), func(t *testing.T) {
					t.Parallel()
					want := make([][]Metrics, len(caps)) // [capacity][variation]
					for c, cb := range caps {
						for _, v := range vars {
							one := cfg
							one.CacheBytes, one.Variation = cb, v
							m, err := Run(one)
							if err != nil {
								t.Fatal(err)
							}
							want[c] = append(want[c], m)
						}
					}
					check := func(caps []int64, want [][]Metrics) {
						var members []Member
						for _, cb := range caps {
							for _, v := range vars {
								members = append(members, Member{CacheBytes: cb, Variation: v})
							}
						}
						got, err := RunGroup(cfg, members)
						if err != nil {
							t.Fatal(err)
						}
						for k, m := range members {
							if w := want[k/len(vars)][k%len(vars)]; got[k] != w {
								t.Errorf("member %d (capacity %d, %T):\n got %+v\nwant %+v", k, m.CacheBytes, m.Variation, got[k], w)
							}
						}
					}
					check(caps[mid:mid+1], want[mid:mid+1])
					if len(caps) > 1 {
						check(caps, want)
					}
				})
			}
		}
	}
}

// TestRunGroupEqualsRun: the exported call averages its runs exactly
// as Run does for each member, in the caller's member order, and the
// arena records that PB's call was one pass, that each of IF's seeds
// fell back, and that each call's second variability shared the first's
// trajectories.
func TestRunGroupEqualsRun(t *testing.T) {
	arena := NewArena()
	var members []Member
	for _, v := range []bandwidth.Variability{bandwidth.NLANRVariability(), nil} {
		members = append(members, atCapacities([]int64{cachePct(10), cachePct(0.5), cachePct(2)}, v)...)
	}
	for _, p := range []core.Policy{core.NewPB(), core.NewIF()} {
		cfg := Config{Workload: testWorkload(), Policy: p, Runs: 3, Seed: 5, Arena: arena}
		got, err := RunGroup(cfg, members)
		if err != nil {
			t.Fatal(err)
		}
		for k, m := range members {
			cfg.CacheBytes, cfg.Variation = m.CacheBytes, m.Variation
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got[k] != want {
				t.Errorf("%s at %d, %T:\n got %+v\nwant %+v", p.Name(), m.CacheBytes, m.Variation, got[k], want)
			}
		}
	}
	if passes, fallbacks, shared, reused := arena.Groups(); passes != 1 || fallbacks != 3 || shared != 6 || reused != 0 {
		t.Errorf("Groups = %d passes, %d fallbacks, %d shared, %d reused; want PB's 1 pass, IF's 3 seeds, 3 shared members per call and nothing reused (nothing declared)", passes, fallbacks, shared, reused)
	}
	if _, err := RunGroup(Config{Workload: testWorkload(), Policy: core.NewPB()}, atCapacities([]int64{1, -1}, nil)); err == nil {
		t.Error("negative capacity accepted")
	}
}

// capacityPass ranks rp under cfg's policy and scores members in one
// pass, as scoreSeed does for a family of one group.
func capacityPass(cfg Config, rp *tape, members []Member, cols []column, out []Metrics) bool {
	s := passPool.Get().(*passScratch)
	defer passPool.Put(s)
	return s.pass(cfg, rp, s.rank(cfg.Policy, rp), members, cols, out)
}

// TestCapacityPassSteadyStateAllocs: with warm buffers, ranking a tape
// allocates nothing, nor does a pass over the ranking, nor a run seed
// of a PB and IB family with a warm pool.
func TestCapacityPassSteadyStateAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops scratches at random under -race")
	}
	cfg, err := Config{Workload: testWorkload(), Policy: core.NewPB(), Variation: bandwidth.NLANRVariability(), Seed: 5}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	seed := SplitSeed(cfg.Seed, 0)
	rp, err := cfg.Arena.tapeOf(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	col := cfg.Arena.column(cfg, seed, rp)
	g, err := newGroup(cfg, atCapacities([]int64{cachePct(0.5), cachePct(2), cachePct(5), cachePct(10), cachePct(16.9)}, cfg.Variation))
	if err != nil {
		t.Fatal(err)
	}
	cols := slices.Repeat([]column{col}, len(g.members))
	out := make([]Metrics, len(cols))
	s := new(passScratch)
	r := s.rank(cfg.Policy, rp)
	if !s.pass(cfg, rp, r, g.members, cols, out) {
		t.Fatal("PB fell back")
	}
	if allocs := testing.AllocsPerRun(5, func() { r = s.rank(cfg.Policy, rp) }); allocs != 0 {
		t.Errorf("steady-state ranking allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { s.pass(cfg, rp, r, g.members, cols, out) }); allocs != 0 {
		t.Errorf("steady-state capacity pass allocates %.1f objects, want 0", allocs)
	}
	ib := cfg
	ib.Policy = core.NewIB()
	cfgs, gs := []Config{cfg, ib}, []group{g, g}
	cols, out, onePass := slices.Concat(cols, cols), slices.Concat(out, out), make([]bool, 2)
	if _, err := scoreSeed(cfgs, gs, rp, cols, out, onePass); err != nil || !onePass[0] || !onePass[1] { // warm the pool
		t.Fatalf("PB and IB: one pass %v, %v", onePass, err)
	}
	if allocs := testing.AllocsPerRun(5, func() { _, _ = scoreSeed(cfgs, gs, rp, cols, out, onePass) }); allocs != 0 {
		t.Errorf("steady-state run seed of a family allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkCapacityAxis is the group's in-tree rung, one run of a paper
// tape per op. The capacity axis: NLANR variability at the scale's five
// cache fractions, replayed through core.Cache once per capacity
// (replay-x5, what a figure paid before the pass) against one capacity
// pass. Variability: the mid capacity under paper scale's five
// lognormal sigmas, one replay per sigma against one replay shared by
// the five columns. e-axis: figure9's eleven hybrids at the five
// cache fractions, one ranking per group (each) against one per family.
//
//	go test ./internal/sim -run '^$' -bench CapacityAxis -benchmem
func BenchmarkCapacityAxis(b *testing.B) {
	arena := NewArena()
	wl := paperWorkload()
	caps := paperCapacities(b, arena, wl)
	caps = caps[1 : len(caps)-1]
	hybrid, err := core.NewHybrid(0.5)
	if err != nil {
		b.Fatal(err)
	}
	setup := func(p core.Policy, v bandwidth.Variability) (Config, int64, *tape) {
		cfg, err := Config{Workload: wl, Policy: p, Variation: v, Seed: 1, Arena: arena}.normalize()
		if err != nil {
			b.Fatal(err)
		}
		seed := SplitSeed(cfg.Seed, 0)
		rp, err := arena.tapeOf(cfg, seed)
		if err != nil {
			b.Fatal(err)
		}
		return cfg, seed, rp
	}
	for _, p := range []core.Policy{core.NewPB(), core.NewIB(), hybrid} {
		cfg, seed, rp := setup(p, bandwidth.NLANRVariability())
		g, err := newGroup(cfg, atCapacities(caps, cfg.Variation))
		if err != nil {
			b.Fatal(err)
		}
		col := arena.column(cfg, seed, rp)
		cols := slices.Repeat([]column{col}, len(caps))
		out := make([]Metrics, len(caps))
		b.Run(p.Name()+"/replay-x5", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for k, c := range caps {
					if err := replayColumns(cfg, rp, c, cols[k:k+1], out[k:k+1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(p.Name()+"/pass", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if !capacityPass(cfg, rp, g.members, cols, out) {
					b.Fatal("fell back")
				}
			}
		})
	}
	b.Run("e-axis", func(b *testing.B) {
		// figure9's axis: eleven hybrids from IB (e = 0) to PB (e = 1)
		// at the five cache fractions, each group ranking the tape
		// itself against one ranking for the family.
		cfg, seed, rp := setup(core.NewPB(), bandwidth.NLANRVariability())
		g, err := newGroup(cfg, atCapacities(caps, cfg.Variation))
		if err != nil {
			b.Fatal(err)
		}
		cfgs := make([]Config, 11)
		for j := range cfgs {
			cfgs[j] = cfg
			if cfgs[j].Policy, err = core.NewHybrid(float64(j) / 10); err != nil {
				b.Fatal(err)
			}
		}
		gs := slices.Repeat([]group{g}, len(cfgs))
		cols := slices.Repeat([]column{arena.column(cfg, seed, rp)}, len(cfgs)*len(caps))
		out, onePass := make([]Metrics, len(cols)), make([]bool, len(cfgs))
		score := func(b *testing.B, cfgs []Config, gs []group, onePass []bool) {
			if _, err := scoreSeed(cfgs, gs, rp, cols, out, onePass); err != nil || slices.Contains(onePass, false) {
				b.Fatalf("one pass %v, %v", onePass, err)
			}
		}
		b.Run("each", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for j := range cfgs {
					score(b, cfgs[j:j+1], gs[j:j+1], onePass[j:j+1])
				}
			}
		})
		b.Run("family", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				score(b, cfgs, gs, onePass)
			}
		})
	})
	b.Run("Variability", func(b *testing.B) {
		var vars []bandwidth.Variability
		for _, sigma := range []float64{0, 0.15, 0.25, 0.4, 0.55} {
			v, err := bandwidth.NewLognormalRatio(sigma)
			if err != nil {
				b.Fatal(err)
			}
			vars = append(vars, v)
		}
		mid := caps[len(caps)/2]
		for _, p := range []core.Policy{core.NewPB(), hybrid} {
			cfg, seed, rp := setup(p, nil)
			cfg.CacheBytes = mid
			cols := make([]column, len(vars))
			for k, v := range vars {
				one := cfg
				one.Variation = v
				cols[k] = arena.column(one, seed, rp)
			}
			out := make([]Metrics, len(vars))
			b.Run(p.Name()+"/replay-x5", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					for k := range vars {
						if err := replayColumns(cfg, rp, mid, cols[k:k+1], out[k:k+1]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(p.Name()+"/shared", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if err := replayColumns(cfg, rp, mid, cols, out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkEstimators times one replay of a paper tape at the middle
// capacity under NLANR variability for each estimator: the oracle, and
// each of the others, whose replay compiles its estimate column.
func BenchmarkEstimators(b *testing.B) {
	arena := NewArena()
	wl := paperWorkload()
	caps := paperCapacities(b, arena, wl)
	mid := caps[len(caps)/2]
	for _, est := range []struct {
		name string
		e    Estimator
	}{{"oracle", nil}, {"ewma_0.3", EWMA{0.3}}, {"underestimate_0.5", Underestimate{0.5}}, {"probe_0.2", ActiveProbe{0.2}}} {
		cfg, err := Config{Workload: wl, Policy: core.NewPB(), Variation: bandwidth.NLANRVariability(), Estimator: est.e, Seed: 1, Arena: arena}.normalize()
		if err != nil {
			b.Fatal(err)
		}
		seed := SplitSeed(cfg.Seed, 0)
		rp, err := arena.tapeOf(cfg, seed)
		if err != nil {
			b.Fatal(err)
		}
		cols, out := []column{arena.column(cfg, seed, rp)}, make([]Metrics, 1)
		b.Run(est.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := replayColumns(cfg, rp, mid, cols, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzCapacityPass is the model test of core.Cache and of sharing on
// random tapes: small random catalogs, request sequences, path means,
// policies, estimators, eviction modes and groups — members at random
// capacities, several to a capacity, each with a bandwidth column of
// its own — go through group.score and through a lone replay (a
// core.Cache) per member, and every Metrics field must agree. The seed
// corpus covers every policy under each estimator and eviction mode.
func FuzzCapacityPass(f *testing.F) {
	for p := range axisPolicies {
		for _, flags := range []uint8{0, 8, 1, 10, 4} {
			for seed := range int64(3) {
				f.Add(seed*int64(len(axisPolicies))+int64(p), uint8(p), flags)
			}
		}
	}
	for seed := range int64(4) {
		f.Add(seed, uint8(1), uint8(16))
	}
	f.Fuzz(func(t *testing.T, seed int64, policy, flags uint8) {
		cfg, rp, members, cols := randomGroup(t, seed, policy, flags)
		checkGroup(t, cfg, rp, members, cols)
		rng := rand.New(rand.NewSource(^seed))
		family := []core.Policy{core.NewPB(), core.NewIB()}
		for k := 2 + rng.Intn(2); k > 0; k-- {
			p, err := core.NewHybrid(rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			family = append(family, p)
		}
		if onePass := checkFamily(t, cfg, rp, family, members, cols); flags&16 != 0 && onePass[1] {
			t.Error("IB took the pass though the planted objects tie")
		}
	})
}

var axisPolicies = []string{"IF", "PB", "IB", "PB-V", "IB-V", "LRU", "LFU", "HYBRID", "HYBRID-V", "GDS", "GDS-BW", "GDSP"}

// randomGroup builds one fuzz case from a seed: up to 12 objects, 96
// requests (on half the tapes, a quarter of them stopping early; the
// other half have no watched column) and 6 distinct capacities (0 and
// more than every object among them), each with 1 to 3 members.
// policy picks from axisPolicies; flags%4 picks the oracle, a
// deliberate underestimate or EWMA, flags&4 whole-object eviction. Each
// member's column holds one random bandwidth per object — or, with
// flags&8 and a coin toss of its own, one per request. flags&16 plants
// a tie: objects 0 and 1 are one object on paths of 0.75 and 1.5 times
// its rate, and the tape opens with requests for 0, 1 and 1, so 1's
// second utility F/b equals 0's first — a tie between an object PB
// caches and one it does not (its path outruns its rate).
func randomGroup(t *testing.T, seed int64, policy, flags uint8) (Config, *tape, []Member, []column) {
	rng := rand.New(rand.NewSource(seed))
	objects, requests := 1+rng.Intn(12), 1+rng.Intn(96)
	if flags&16 != 0 {
		objects = max(objects, 2)
	}
	tp := &tape{objs: make([]core.Object, objects), means: make([]float64, objects)}
	var total int64
	for o := range tp.objs {
		rate, dur := 1000+rng.Float64()*9000, 1+rng.Float64()*99
		tp.objs[o] = core.Object{ID: o, Size: int64(rate * dur), Duration: dur, Rate: rate, Value: float64(rng.Intn(16)) / 4}
		total += tp.objs[o].Size
	}
	now, partial := 1.0, rng.Intn(2) == 0
	for range requests {
		o := uint32(rng.Intn(objects))
		if rng.Intn(3) == 0 { // skew: the low IDs are hot
			o = uint32(rng.Intn(1 + objects/3))
		}
		if rng.Intn(32) != 0 { // a 0 step can tie LRU's utilities
			now += rng.Float64()
		}
		tp.obj, tp.time = append(tp.obj, o), append(tp.time, now)
		if partial {
			watched := tp.objs[o].Size
			if rng.Intn(4) == 0 {
				watched = rng.Int63n(watched + 1)
			}
			tp.watched = append(tp.watched, watched)
		}
	}
	for o := range tp.means {
		tp.means[o] = float64(100 + rng.Intn(20000))
	}
	if flags&16 != 0 {
		tp.objs[1] = tp.objs[0]
		tp.objs[1].ID = 1
		tp.means[0] = 0.75 * tp.objs[0].Rate
		tp.means[1] = 2 * tp.means[0]
		tp.obj, tp.time = append([]uint32{0, 1, 1}, tp.obj...), append([]float64{0.25, 0.5, 0.75}, tp.time...)
		if partial {
			tp.watched = append([]int64{tp.objs[0].Size, tp.objs[1].Size, tp.objs[1].Size}, tp.watched...)
		}
		requests += 3
	}
	name := axisPolicies[int(policy)%len(axisPolicies)]
	p, err := core.PolicyByName(name, rng.Float64())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: p}
	switch flags % 4 {
	case 1:
		cfg.Estimator = Underestimate{0.5}
	case 2:
		cfg.Estimator = EWMA{0.3}
	}
	cfg.WholeObjectEviction = flags&4 != 0
	if cfg, err = cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	caps := []int64{0, total + 1}
	for k := rng.Intn(4); k > 0; k-- {
		caps = append(caps, rng.Int63n(total+1))
	}
	var members []Member
	var cols []column
	for _, c := range caps {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			m, col := Member{CacheBytes: c, Variation: bandwidth.NoVariation{}}, column{inst: make([]float64, objects)}
			if flags&8 != 0 && rng.Intn(2) == 0 {
				m.Variation, col = bandwidth.NLANRVariability(), column{inst: make([]float64, requests), perRequest: true}
			}
			for i := range col.inst {
				o := i
				if col.perRequest {
					o = int(tp.obj[i])
				}
				col.inst[i] = tp.means[o] * (0.2 + 2*rng.Float64())
			}
			members, cols = append(members, m), append(cols, col)
		}
	}
	rng.Shuffle(len(members), func(i, j int) {
		members[i], members[j] = members[j], members[i]
		cols[i], cols[j] = cols[j], cols[i]
	})
	return cfg, tp, members, cols
}
