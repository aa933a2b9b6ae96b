package sim

import (
	"math/rand"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/workload"
)

// tape is one compiled (workload.Config, run seed): everything a run
// replays and cannot derive — the trace as flat columns indexed by
// request, the object table the columns index into and the mean
// bandwidth of each object's origin path. 12 bytes per request, and 8
// more on a tape with a partial viewer (against workload.Request's 24,
// which is never built for a run), plus 8 per object for its mean.
// Nothing in it depends on the cache under test, which is what lets
// every sweep point of a seed share one. Immutable once compiled.
type tape struct {
	key   workload.Config // the arena key it was compiled from
	objs  []core.Object   // indexed by object ID
	obj   []uint32        // request -> index into objs
	time  []float64       // request -> arrival time, seconds
	means []float64       // object -> its path's mean bandwidth (NLANR, Figure 2)
	// watched is request -> bytes the session watches (<= object size),
	// or nil when every session watches to the end; read it through
	// watchedAt.
	watched []int64
}

// watchedAt returns the bytes request i watches, given the size of the
// object it asks for.
func (t *tape) watchedAt(i int, size int64) int64 {
	if t.watched == nil {
		return size
	}
	return t.watched[i]
}

// compileTape draws cfg's workload straight into the columns, and each
// object's path mean from the network stream of cfg.Seed (pathMeans).
// The partial-viewing clamp is applied here, once, for every request
// loop: a session that stops early only ever transfers the watched
// prefix. The watched column is made at the first such session, with
// the requests before it watching their whole object.
func compileTape(cfg workload.Config) (*tape, error) {
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	n := g.Config.NumRequests
	t := &tape{
		key:   cfg,
		objs:  g.Objects,
		obj:   make([]uint32, n),
		time:  make([]float64, n),
		means: pathMeans(cfg.Seed, len(g.Objects)),
	}
	for i := range n {
		r := g.Next()
		t.obj[i], t.time[i] = uint32(r.ObjectID), r.Time
		partial := r.Fraction > 0 && r.Fraction < 1
		if t.watched == nil {
			if !partial {
				continue
			}
			t.watched = make([]int64, n)
			for j, o := range t.obj[:i] {
				t.watched[j] = t.objs[o].Size
			}
		}
		size := t.objs[r.ObjectID].Size
		t.watched[i] = size
		if partial {
			t.watched[i] = int64(r.Fraction * float64(size))
		}
	}
	return t, nil
}

// netSeedSalt separates the network random streams from the workload
// stream of the same run (the workload generator seeds rand with the
// run seed directly).
const netSeedSalt = 0x5DEECE66D

// pathMeans draws the mean bandwidth of n origin paths from the NLANR
// distribution, in object order, from the network stream of the run
// seeded with seed.
func pathMeans(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed ^ netSeedSalt))
	base := bandwidth.NLANR()
	means := make([]float64, n)
	for i := range means {
		means[i] = base.Sample(rng)
	}
	return means
}

// tapeKey is the arena key of the tape the run of cfg seeded with seed
// replays: cfg's workload with the run seed, normalised.
func (c Config) tapeKey(seed int64) (workload.Config, error) {
	w := c.Workload
	w.Seed = seed
	return w.Normalize()
}

// tapeOf compiles — or, when an earlier run of the arena already has,
// looks up — the tape of the run of cfg seeded with seed.
func (a *Arena) tapeOf(cfg Config, seed int64) (*tape, error) {
	wcfg, err := cfg.tapeKey(seed)
	if err != nil {
		return nil, err
	}
	return memoize(a, a.tapes, wcfg, func() (*tape, error) {
		a.tapeCompiles.Add(1)
		return compileTape(wcfg)
	})
}

// drawsPerRequest reports whether v consumes the per-request random
// stream: every variability does except the constant-bandwidth one,
// whose instantaneous bandwidth is a property of the path alone.
func drawsPerRequest(v bandwidth.Variability) bool {
	_, constant := v.(bandwidth.NoVariation)
	return !constant
}

// compileRates draws the instantaneous bandwidth every request of rp
// observes — one value per request, or one per object for a
// variability that never draws. It draws exactly as an inline loop
// would: one Ratio per request in request order from the per-request
// stream SplitSeed(pathSeed, 1), times the path mean, floored, with
// bandwidth.Path doing the arithmetic. Path-mean assignment draws from
// pathSeed itself; keeping the two streams apart is what makes this
// column a pure function of (tape, variation) and never of what a cache
// did between two draws.
func compileRates(rp *tape, variation bandwidth.Variability, seed int64) []float64 {
	if !drawsPerRequest(variation) {
		inst := make([]float64, len(rp.means))
		for o, mean := range rp.means {
			inst[o] = bandwidth.Path{MeanRate: mean, Variation: variation}.Instant(nil)
		}
		return inst
	}
	rng := rand.New(rand.NewSource(SplitSeed(seed^netSeedSalt, 1)))
	inst := make([]float64, len(rp.obj))
	for i, o := range rp.obj {
		inst[i] = bandwidth.Path{MeanRate: rp.means[o], Variation: variation}.Instant(rng)
	}
	return inst
}

// column is one bandwidth column as a request loop reads it: request i,
// for object o, observes inst[i] when the variability draws per request
// and inst[o] when it does not.
type column struct {
	inst       []float64
	perRequest bool
}

func (c column) at(i int, o uint32) float64 {
	if c.perRequest {
		return c.inst[i]
	}
	return c.inst[o]
}

// column returns the (possibly cached) bandwidth column of rp under
// cfg's variability.
func (a *Arena) column(cfg Config, seed int64, rp *tape) column {
	c := column{perRequest: drawsPerRequest(cfg.Variation)}
	c.inst, _ = memoize(a, a.cols, rateKey{tape: rp.key, variation: cfg.Variation}, func() ([]float64, error) {
		a.rateCompiles.Add(1)
		return compileRates(rp, cfg.Variation, seed), nil
	})
	return c
}
