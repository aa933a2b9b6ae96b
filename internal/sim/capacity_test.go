package sim

import (
	"math/rand"
	"runtime/debug"
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

// checkAxis scores one run of rp at caps, requires every Metrics field
// to equal replayOnce's (a core.Cache's) at each capacity, and reports
// whether the pass scored it.
func checkAxis(t *testing.T, cfg Config, rp replay, inst []float64, caps []int64) (onePass bool) {
	t.Helper()
	out := make([]Metrics, len(caps))
	onePass, err := scoreReplay(cfg, rp, inst, caps, out)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range caps {
		one := cfg
		one.CacheBytes = c
		want, err := replayOnce(one, rp, inst)
		if err != nil {
			t.Fatal(err)
		}
		if out[k] != want {
			t.Errorf("%s, capacity %d of %v (one pass %v):\n got %+v\nwant %+v", cfg.newPolicy().Name(), c, caps, onePass, out[k], want)
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

// TestCapacityPassMatchesRunOnce is the pass's exactness contract on
// paper-size tapes: for every policy PolicyByName knows, under constant,
// NLANR and measured variability, over three run seeds, each capacity's
// Metrics equal runOnce's field for field — EvictedBytes included — and
// the policies the pass cannot score exactly report a fallback: IF and
// LFU (integer utilities always tie), the GreedyDual family (a factory,
// and aging state), the EWMA estimator and whole-object eviction. A
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
	for _, name := range []string{"IF", "PB", "IB", "PB-V", "IB-V", "LRU", "LFU", "HYBRID", "HYBRID-V", "GDS", "GDS-BW", "GDSP"} {
		p, err := core.PolicyByName(name, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workload: wl, Policy: p}
		if _, stateful := p.(core.EvictionObserver); stateful {
			cfg = Config{Workload: wl, PolicyFactory: func() core.Policy { p, _ := core.PolicyByName(name, 0.5); return p }}
		}
		cases = append(cases, axisCase{name, cfg, onePass[name]})
	}
	cases = append(cases,
		axisCase{"PB/ewma", Config{Workload: wl, Policy: core.NewPB(), Estimators: EWMAEstimator(0.3)}, false},
		axisCase{"PB/whole-object", Config{Workload: wl, Policy: core.NewPB(), CacheOptions: []core.Option{core.WithWholeObjectEviction(true)}}, false},
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
					rp, err := arena.replay(cfg, seed)
					if err != nil {
						t.Fatal(err)
					}
					if onePass := checkAxis(t, cfg, rp, arena.rates(cfg, seed, rp), caps); onePass != c.wantPass {
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
		rp := replay{tape: &tape{
			objs:    []core.Object{obj(0), obj(1)},
			obj:     []uint32{0, 1, 0, 1, 0, 1},
			time:    []float64{1, 2, 3, 4, 5, 6},
			watched: []int64{1000, 1000, 1000, 1000, 1000, 1000},
		}, means: []float64{20, 20}}
		cfg, err := Config{Policy: core.NewPB()}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		if checkAxis(t, cfg, rp, rp.means, []int64{0, 500, 1000, 1500, 3000}) {
			t.Error("a utility tie was scored in one pass")
		}
	})
}

// TestRunCapacitiesEqualsRun: the exported call averages its runs
// exactly as Run does at each capacity, and the arena records that PB's
// call was one pass and that each of IF's seeds fell back.
func TestRunCapacitiesEqualsRun(t *testing.T) {
	arena := NewArena()
	caps := []int64{cachePct(0.5), cachePct(2), cachePct(10)}
	for _, p := range []core.Policy{core.NewPB(), core.NewIF()} {
		cfg := Config{Workload: testWorkload(), Policy: p, Variation: bandwidth.NLANRVariability(), Runs: 3, Seed: 5, Arena: arena}
		got, err := RunCapacities(cfg, caps)
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range caps {
			cfg.CacheBytes = c
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got[k] != want {
				t.Errorf("%s at %d:\n got %+v\nwant %+v", p.Name(), c, got[k], want)
			}
		}
	}
	if passes, fallbacks := arena.CapacityPasses(); passes != 1 || fallbacks != 3 {
		t.Errorf("CapacityPasses = %d passes, %d fallbacks; want PB's 1 pass and IF's 3 seeds", passes, fallbacks)
	}
	if _, err := RunCapacities(Config{Workload: testWorkload(), Policy: core.NewPB()}, []int64{1, -1}); err == nil {
		t.Error("negative capacity accepted")
	}
}

// TestCapacityPassSteadyStateAllocs: with a warm pool, one pass
// allocates nothing.
func TestCapacityPassSteadyStateAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops scratches at random under -race")
	}
	cfg, err := Config{Workload: testWorkload(), Policy: core.NewPB(), Variation: bandwidth.NLANRVariability(), Seed: 5}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	seed := SplitSeed(cfg.Seed, 0)
	rp, err := cfg.Arena.replay(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	inst := cfg.Arena.rates(cfg, seed, rp)
	caps := []int64{cachePct(0.5), cachePct(2), cachePct(5), cachePct(10), cachePct(16.9)}
	out := make([]Metrics, len(caps))
	if !capacityPass(cfg, rp, inst, caps, out) { // warm the pool
		t.Fatal("PB fell back")
	}
	if allocs := testing.AllocsPerRun(5, func() { capacityPass(cfg, rp, inst, caps, out) }); allocs != 0 {
		t.Errorf("steady-state capacity pass allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkCapacityAxis is the pass's in-tree rung: one run of a paper
// tape under NLANR variability at the scale's five cache fractions,
// replayed through core.Cache once per capacity (runOnce x5, what a
// figure paid before) against one capacity pass.
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
	for _, p := range []core.Policy{core.NewPB(), core.NewIB(), hybrid} {
		cfg, err := Config{Workload: wl, Policy: p, Variation: bandwidth.NLANRVariability(), Seed: 1, Arena: arena}.normalize()
		if err != nil {
			b.Fatal(err)
		}
		seed := SplitSeed(cfg.Seed, 0)
		rp, err := arena.replay(cfg, seed)
		if err != nil {
			b.Fatal(err)
		}
		inst := arena.rates(cfg, seed, rp)
		out := make([]Metrics, len(caps))
		b.Run(p.Name()+"/runOnce-x5", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for k, c := range caps {
					one := cfg
					one.CacheBytes = c
					if out[k], err = runOnce(one, seed); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(p.Name()+"/pass", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if !capacityPass(cfg, rp, inst, caps, out) {
					b.Fatal("fell back")
				}
			}
		})
	}
}

// FuzzCapacityPass is the model test of core.Cache on random tapes:
// small random catalogs, request sequences, path means, bandwidth
// columns, policies, estimators, eviction modes and capacities go
// through scoreReplay and through replayOnce (a core.Cache) at each
// capacity, and every Metrics field must agree. The seed corpus covers
// every policy under each estimator and eviction mode.
func FuzzCapacityPass(f *testing.F) {
	for p := range axisPolicies {
		for _, flags := range []uint8{0, 8, 1, 10, 4} {
			for seed := range int64(3) {
				f.Add(seed*int64(len(axisPolicies))+int64(p), uint8(p), flags)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, policy, flags uint8) {
		cfg, rp, inst, caps := randomAxis(t, seed, policy, flags)
		checkAxis(t, cfg, rp, inst, caps)
	})
}

var axisPolicies = []string{"IF", "PB", "IB", "PB-V", "IB-V", "LRU", "LFU", "HYBRID", "HYBRID-V", "GDS", "GDS-BW", "GDSP"}

// randomAxis builds one fuzz case from a seed: up to 12 objects, 96
// requests and 6 capacities (0 and more than every object among them).
// policy picks from axisPolicies; flags%4 picks the oracle, a
// deliberate underestimate or EWMA, flags&4 whole-object eviction and
// flags&8 a bandwidth drawn per request.
func randomAxis(t *testing.T, seed int64, policy, flags uint8) (Config, replay, []float64, []int64) {
	rng := rand.New(rand.NewSource(seed))
	objects, requests := 1+rng.Intn(12), 1+rng.Intn(96)
	tp := &tape{objs: make([]core.Object, objects)}
	var total int64
	for o := range tp.objs {
		rate, dur := 1000+rng.Float64()*9000, 1+rng.Float64()*99
		tp.objs[o] = core.Object{ID: o, Size: int64(rate * dur), Duration: dur, Rate: rate, Value: float64(rng.Intn(16)) / 4}
		total += tp.objs[o].Size
	}
	now := 1.0
	for range requests {
		o := uint32(rng.Intn(objects))
		if rng.Intn(3) == 0 { // skew: the low IDs are hot
			o = uint32(rng.Intn(1 + objects/3))
		}
		if rng.Intn(32) != 0 { // a 0 step can tie LRU's utilities
			now += rng.Float64()
		}
		watched := tp.objs[o].Size
		if rng.Intn(4) == 0 {
			watched = rng.Int63n(watched + 1)
		}
		tp.obj, tp.time, tp.watched = append(tp.obj, o), append(tp.time, now), append(tp.watched, watched)
	}
	rp := replay{tape: tp, means: make([]float64, objects)}
	for o := range rp.means {
		rp.means[o] = float64(100 + rng.Intn(20000))
	}
	name := axisPolicies[int(policy)%len(axisPolicies)]
	p, err := core.PolicyByName(name, rng.Float64())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: p, WarmFraction: float64(rng.Intn(4)) / 4}
	if _, stateful := p.(core.EvictionObserver); stateful {
		cfg.Policy, cfg.PolicyFactory = nil, func() core.Policy { p, _ := core.PolicyByName(name, 0); return p }
	}
	switch flags % 4 {
	case 1:
		cfg.Estimators = UnderestimatingOracle(0.5)
	case 2:
		cfg.Estimators = EWMAEstimator(0.3)
	}
	if flags&4 != 0 {
		cfg.CacheOptions = []core.Option{core.WithWholeObjectEviction(true)}
	}
	inst := rp.means
	if flags&8 != 0 { // a variability that draws: one bandwidth per request
		cfg.Variation = bandwidth.NLANRVariability()
		inst = make([]float64, requests)
		for i, o := range tp.obj {
			inst[i] = rp.means[o] * (0.2 + 2*rng.Float64())
		}
	}
	if cfg, err = cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	caps := []int64{0, total + 1}
	for k := rng.Intn(4); k > 0; k-- {
		caps = append(caps, rng.Int63n(total+1))
	}
	rng.Shuffle(len(caps), func(i, j int) { caps[i], caps[j] = caps[j], caps[i] })
	return cfg, rp, inst, caps
}
