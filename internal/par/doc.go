// Package par provides the bounded fan-out primitives shared by the
// simulation engine (parallel replications in sim.Run) and the
// experiment engine (parallel sweep points in internal/experiments).
//
// # Reproducibility contract
//
// The primitives schedule work; they never decide results.
// Reproducibility is the caller's contract, and the two primitives
// support it in complementary ways:
//
//   - With For, fn writes only to its own index-addressed slot and
//     callers aggregate slots in index order afterwards, so the
//     aggregate is independent of which worker ran which index.
//   - With ForOrdered, a reorder buffer delivers results to the emit
//     callback in strict index order as workers finish out of order, so
//     a streamed consumer observes the same sequence at any worker
//     count. emit is never called concurrently with itself.
//
// Either way results never depend on worker count or schedule — the
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
