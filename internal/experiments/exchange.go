package experiments

import "sync/atomic"

// Shard-aware adaptive scheduling: a sharded refinement round needs the
// metric of every point in the round — owned and foreign alike — to
// rank the next intervals, but only the owner should pay for the
// simulation. A MetricExchange closes that loop: each shard publishes
// the metrics of its owned points through its sinks (the collector
// service of internal/collect, in production), and resolves the foreign
// ones through the exchange instead of re-simulating them. The
// determinism contract makes this a pure optimization: every shard
// would compute bit-for-bit the same float64 for any point, so a fetch
// that fails (collector down, owner dead) falls back to local
// evaluation and the refined point set — and the emitted rows — are
// unchanged. With a healthy exchange, an N-shard refined sweep runs
// O(total/N) simulations per shard instead of O(total) on each.

// MetricExchange resolves the refinement metrics of points owned by
// other shards. ForeignMetric may block (bounded by the
// implementation's own timeout) until the owning shard has published
// the metric for (table, index); ok=false means the metric is
// unavailable and the caller must evaluate the point locally. An
// implementation must return exactly the float64 the owning shard
// computed — rows and refinement decisions are byte-identical whether a
// metric was fetched or recomputed.
type MetricExchange interface {
	ForeignMetric(table string, index int) (metric float64, ok bool)
}

// Counters accumulates scheduler telemetry for one run. Attach one via
// Scale.Counters to observe how much simulation work this process
// actually performed — the benchmark metric behind the O(total/N)
// sharded-refinement contract. It counts what the scheduler decides;
// how the simulated points were scored (capacity passes, shared
// replays, reused answers, rankings) the arena counts itself
// (sim.Arena.Groups, sim.Arena.Ranks). All fields are safe for
// concurrent use.
type Counters struct {
	// Evaluations counts sweep points this process simulated (journal
	// replays and exchange fetches are not evaluations), however they
	// were scored.
	Evaluations atomic.Int64
	// ExchangeHits counts foreign points resolved through the
	// MetricExchange instead of being re-simulated locally.
	ExchangeHits atomic.Int64
	// ExchangeWaitNanos is the wall time spent blocked in
	// MetricExchange.ForeignMetric, hits and misses alike — how long this
	// shard sat idle waiting for its peers' points.
	ExchangeWaitNanos atomic.Int64
}
