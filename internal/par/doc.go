// Package par provides the bounded fan-out primitive shared by the
// simulation engine (parallel replications in sim.Run) and the
// experiment engine (concurrent lookups of a round's points in
// internal/experiments).
//
// # Reproducibility contract
//
// For schedules work; it never decides results. Reproducibility is the
// caller's contract: fn writes only to its own index-addressed slot and
// callers aggregate slots in index order afterwards, so the aggregate
// is independent of which worker ran which index.
//
// So results never depend on worker count or schedule — the
// property the experiments layer amplifies into byte-identical sweeps
// at any Parallelism, and (via stable global row indices) into
// byte-identical unions across sweep shards. Callers must keep fn free
// of cross-index shared mutable state; anything fn reads concurrently
// (for example a sim.Arena) must hand out immutable values only.
//
// # Guarded state
//
// Guarded[T] is the other half: state that goroutines do share, held
// behind a lock that only its With and Read can take, so that the lock
// is released on every path and the state is never reached without it.
// The live proxy keeps its shard, prefix-store and relay state in one.
package par
