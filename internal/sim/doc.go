// Package sim drives the partial-caching algorithms with synthetic
// workloads and bandwidth models, reproducing the evaluation methodology
// of Sections 3-4: each run warms the cache with the first half of the
// workload and computes metrics over the second half; reported results
// average several independently seeded runs (the paper uses ten).
//
// Metrics follow Section 3.3:
//
//   - traffic reduction ratio: fraction of requested bytes served by the cache
//   - average service delay: mean client wait before playout can begin
//   - average stream quality: mean fraction of the stream immediate playout sustains
//   - total added value: summed object values of immediately-servable requests
//
// # Reproducibility contract
//
// Run results are a pure function of Config minus Parallelism. Every
// source of randomness in a run — the workload, the path-mean
// assignment, per-request bandwidth samples, estimator jitter — derives
// from Config.Seed through SplitSeed (a SplitMix64 expansion), with one
// independent stream per replicated run, so Metrics are bit-identical
// for every Config.Parallelism value and goroutine schedule. This is
// what lets the experiments layer key a row by nothing more than its
// position in the sweep grid: re-running the config at that position —
// on any machine, any worker count, any sweep shard — regenerates the
// identical row, which is the foundation of the sharding, journaling
// and resume subsystems in internal/experiments.
// TestMetricsIdenticalAcrossParallelism and TestArenaMetricsBitIdentical
// pin it.
//
// # Arena immutability contract
//
// An Arena compiles each (workload config, run seed) once into a replay
// tape — the trace as flat columns, its core.Object table and the
// per-path mean bandwidths, NLANR draws from the run seed's network
// stream — and each variability's per-request bandwidth draws over it,
// and shares them across the runs and sweep points of one experiment,
// keyed strictly by the inputs that determine them: a memoized run is
// bit-identical to a fresh one. Every configuration keys the arena, so
// a Policy or Variation that is not a comparable value is ErrBadConfig.
// A Run whose Config.Arena is nil gets an arena of its own
// for the length of the call — one replay path, nothing retained after
// it returns. Everything the arena hands out is immutable and shared
// across goroutines: callers (and policies they configure) must not
// mutate a returned Workload, tape column or []float64. The arena
// releases a tape or bandwidth column once nothing can still read it —
// no pending member, no later group of the same ScorePending call, no
// Hold — and, every value being a pure function of its key, a release
// that comes too early costs a recompile, never a wrong byte.
// For the configurations declared to it (Arena.Declare, or
// Arena.ScorePending, which also groups a sweep round's points by share
// key and is the only code that reads or writes them) an arena also
// keeps each group member's Metrics, which are as pure a function of
// their inputs: whichever round scored a member, every round that asks
// for it gets the same bits. What a run mutates — every node's cache
// and the estimate column, each request's price and target — comes
// from one pooled per-worker scratch that is reset, never rebuilt.
package sim
