// Package experiments regenerates every table and figure of the paper's
// evaluation (Table 1 and Figures 2-12), plus the ablations, Section 6
// extensions, the scenario matrix, the adaptively refined axis sweeps
// and the cache hierarchy — 24 keyed experiments in all (see
// EXPERIMENTS.md for the catalog and cmd/figures for the batch driver).
// A simulated experiment is a spec value — axes x metric columns,
// spec.go — compiled into a plan that one runner streams (engine.go).
//
// # Reproducibility contract
//
// Every experiment streams its rows through a RowSink in deterministic
// task order, and the streamed bytes of a deterministic sink (CSV,
// JSONL) are identical for:
//
//   - every Scale.Parallelism value and any goroutine schedule: sweep
//     points are self-contained (each run derives all randomness from
//     the config seed via sim.SplitSeed), and a round formats and emits
//     its rows in index order once sim.Arena.ScorePending has scored
//     them;
//   - every Scale.Shard.Count: rows carry stable global indices (their
//     position in the unsharded stream), shards own each round's groups
//     whole — its rows with one share key — by a pure function of the
//     round (a round of lone rows round robin, index mod Count), and
//     MergeJournals reassembles the exact unsharded byte stream from
//     the shards' journals (MergeShards, one table's, from any row
//     logs);
//   - resumed runs: with Scale.Journal the engine checkpoints completed
//     rows under the key (table name, global index) and ends each table
//     with its row count, and a run restarted on the same journal
//     replays them — including the full-precision refinement metrics
//     adaptive sweeps rank intervals by — instead of recomputing. The
//     journal, the JSONL sink and the merge share one record grammar
//     and one apply/dedupe/replay engine, internal/rowlog (DESIGN.md
//     §4a);
//   - memoized runs: the sim.Arena shared across sweep points hands out
//     only values that are pure functions of their keys — compiled
//     replay tapes and bandwidth columns — so reuse can never change a
//     row.
//
// Adaptive refinement (plan.run; refine.go and refine2d.go hold the
// refiners) keeps these guarantees by keying every decision exclusively
// on completed rows: the coarse pass is a full barrier, each round adds
// a fixed number of points chosen deterministically from the completed
// metrics, and under sharding every shard sees all points' metrics (the
// curve is global state) — its own simulated first, its peers' fetched
// through Scale.Exchange or, failing that, simulated too — while
// emitting only the rows it owns.
//
// The regression tests in engine_test.go, shard_test.go and
// journal_test.go pin each clause of this contract within one build;
// TestGoldenTables (golden_test.go) pins every table's bytes across
// builds.
package experiments
