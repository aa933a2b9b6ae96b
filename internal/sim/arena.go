// The arena: sweep-wide memoization of the immutable inputs every run
// re-derives from its seed.
//
// A sweep (cache size x policy x scenario axis) replays the same
// (workload.Config, run seed) pairs at every sweep point, and none of
// what a run reads — the trace, the per-path mean bandwidths, the
// per-request bandwidth draws — depends on the cache under test. The
// arena therefore compiles each pair once into a replay tape (tape.go),
// path means included, and hands the same tape to every point, keyed
// strictly by the inputs that determine it, so a memoized run is
// bit-identical to a fresh one.
//
// Sharing contract (DESIGN.md §5a): everything the arena hands out is
// immutable and shared across goroutines. Callers (and policies they
// configure) must not mutate a returned Workload, []float64 or tape
// column. The keys hold the configuration's own values — its
// variability among them — so every one must be comparable:
// Config.withDefaults and Trace refuse any other with ErrBadConfig,
// and nothing is compiled outside the memo maps.
//
// Release rule: the arena forgets a tape — its path means with it — or
// a bandwidth column as soon as nothing can still read it. After each
// family of groups it scores, ScorePending drops every one that no
// member pending under any share key, no group of the same call not yet
// scored and no hold (Hold) names (share.go). Every value is a pure
// function of its key, so a release that comes too early costs a
// recompile, which Compiles counts, and never a wrong byte.
package sim

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"streamcache/internal/bandwidth"
	"streamcache/internal/trace"
	"streamcache/internal/workload"
)

// Arena memoizes replay tapes, bandwidth columns, workloads and traces
// across the runs and sweep points of one experiment — and, for the
// share keys declared to it, the Metrics of group members that
// ScorePending scored for one round and hands to the rounds that ask
// later (share.go). The zero value is not usable; call
// NewArena. All methods are safe for concurrent use, and every value is
// a pure function of its key, so results never depend on which
// goroutine populated an entry first.
type Arena struct {
	mu     sync.Mutex // the memo lock: guards the four memo maps
	wls    map[workload.Config]*memo[*workload.Workload]
	tapes  map[workload.Config]*memo[*tape]
	cols   map[rateKey]*memo[[]float64]
	traces map[trace.GenConfig]*memo[[]trace.Entry]
	// store guards answers, the declared share keys' members, and
	// holds, what each holder keeps from release; only Declare, Hold,
	// Drop and ScorePending take it (share.go).
	store   sync.Mutex
	answers map[HierarchyConfig]*shareEntry
	holds   map[string]map[reads]bool

	tapeCompiles, rateCompiles        atomic.Int64
	passes, fallbacks, shared, reused atomic.Int64 // RunGroup telemetry
	ranks                             atomic.Int64 // rankings built (Ranks)
}

// NewArena builds an empty arena. One arena can serve a whole figure
// set: ScorePending releases each tape and column once nothing declared,
// asked or held still reads it.
func NewArena() *Arena {
	return &Arena{
		wls:     make(map[workload.Config]*memo[*workload.Workload]),
		tapes:   make(map[workload.Config]*memo[*tape]),
		cols:    make(map[rateKey]*memo[[]float64]),
		traces:  make(map[trace.GenConfig]*memo[[]trace.Entry]),
		answers: make(map[HierarchyConfig]*shareEntry),
		holds:   make(map[string]map[reads]bool),
	}
}

// memo is one arena entry: the first goroutine to ask computes it, the
// rest wait on the Once and share the result.
type memo[V any] struct {
	once sync.Once
	v    V
	err  error
}

// memoize returns m[key], computing it with build on first use. The
// arena lock covers only the map; build runs outside it, so distinct
// keys compile concurrently.
func memoize[K comparable, V any](a *Arena, m map[K]*memo[V], key K, build func() (V, error)) (V, error) {
	a.mu.Lock()
	e := m[key]
	if e == nil {
		e = &memo[V]{}
		m[key] = e
	}
	a.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}

// rateKey identifies one instantaneous-bandwidth column: the tape's key
// fixes the request order, the path means the ratios multiply and
// (through its seed) both random streams, the variability the ratios.
type rateKey struct {
	tape      workload.Config
	variation bandwidth.Variability
}

// keyable reports whether v can key a map without panicking: whether
// every interface value it holds, however deep, is nil or of a
// comparable dynamic type.
func keyable(v any) bool { return reflect.ValueOf(v).Comparable() }

// Workload returns the (possibly cached) generated workload for cfg —
// the catalog-and-trace view the characterization tables and cache
// sizing read; simulation runs replay a compiled tape instead. cfg is
// normalized before keying, so two configurations that normalize
// identically share one generation.
func (a *Arena) Workload(cfg workload.Config) (*workload.Workload, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return memoize(a, a.wls, cfg, func() (*workload.Workload, error) { return workload.Generate(cfg) })
}

// Trace returns the (possibly cached) synthetic access log generated
// from cfg. Figures 2 and 3 analyze the same log shape at two
// variability settings, and a sweep-shared arena generates each
// distinct GenConfig exactly once. cfg keys the arena, so its
// Variation must be a comparable value; any other is ErrBadConfig, as
// in a Config. The returned slice is shared and must not be mutated.
func (a *Arena) Trace(cfg trace.GenConfig) ([]trace.Entry, error) {
	if !keyable(cfg) {
		return nil, fmt.Errorf("%w: trace Variation %T must be a comparable value: every configuration keys the arena", ErrBadConfig, cfg.Variation)
	}
	return memoize(a, a.traces, cfg, func() ([]trace.Entry, error) { return trace.Generate(cfg) })
}

// Compiles reports how many trace tapes and how many bandwidth columns
// the arena has compiled so far: with reuse working, a sweep of any
// number of points over one workload and one variability compiles one
// of each per run seed.
func (a *Arena) Compiles() (tapes, rates int64) {
	return a.tapeCompiles.Load(), a.rateCompiles.Load()
}

// Live reports how many trace tapes and bandwidth columns the arena
// holds now: what it compiled and has not yet released.
func (a *Arena) Live() (tapes, cols int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.tapes), len(a.cols)
}

// Groups reports what the RunGroup calls served by the arena did. Of the
// calls with two or more distinct capacities, passes counts those that
// scored every run seed in one tape pass, and fallbacks the run seeds
// replayed per capacity (or, with an estimator, per member) instead.
// shared counts the members scored from a cache trajectory replayed for
// another member at the same capacity: every member but one per
// capacity, under the oracle estimator. reused counts the
// configurations a ScorePending call answered from an earlier call's
// scoring instead.
func (a *Arena) Groups() (passes, fallbacks, shared, reused int64) {
	return a.passes.Load(), a.fallbacks.Load(), a.shared.Load(), a.reused.Load()
}

// Ranks reports how many rankings of a tape's requests by utility the
// capacity passes of the arena's RunGroup and ScorePending calls have
// built: one per run seed of a family of groups that takes the pass,
// however many of the family's groups read it (capacity.go).
func (a *Arena) Ranks() int64 { return a.ranks.Load() }
