// Package load is the load engine for the live proxy tier: the one
// place that dispatches client requests, turns a fetch into a measured
// Outcome, and aggregates outcomes into a Report. Both cmd/loadgen
// modes are a schedule handed to Run.
//
// The one rule. Run keeps at most MaxInflight downloads going; what
// happens to an item that finds them all taken is a property of the
// item, fixed where its schedule is built:
//
//   - A timed item (BuildSchedule) is an arrival drawn from a clock. It
//     is issued at its instant however the proxy is doing, and at a
//     full house it is shed. Shedding is what keeps an open loop open:
//     an arrival that queued for capacity would be issued when the
//     proxy got round to it, so a saturated proxy would set the offered
//     load — queueing collapse and the knee where startup-delay SLOs
//     break could not be observed.
//   - An untimed item (ClosedSchedule) has no instant to be late for.
//     It waits for a slot, so MaxInflight slots stay exactly full: N
//     closed-loop clients, each issuing its next request as its
//     previous download completes. Offered load is capped at N and a
//     saturated proxy silently throttles the workload — right for
//     measuring hit ratio and startup delay, useless for capacity.
//
// Fetching, classifying and summarising never ask which kind they got.
//
// The pieces:
//
//   - Arrival processes (Process): Poisson and a self-similar/bursty
//     process built from superposed on-off sources with heavy-tailed
//     (Pareto) period lengths; trace classes replay a trace's exact
//     timestamps and objects instead.
//   - Multi-class workload specs (Spec, ParseSpec): each class binds an
//     arrival process, a viewing-duration distribution
//     (workload.Viewing), an object-popularity skew, and an SLO class
//     (startup-delay budget), loaded from a JSON file.
//   - A deterministic schedule builder (BuildSchedule): arrival streams
//     are seed-split per class with sim.SplitSeed, so identical
//     (seed, spec) inputs produce byte-identical schedules — the live
//     analog of the simulator's bit-identical-at-any-parallelism
//     contract.
//   - The dispatcher (Run): replays a schedule against one proxy or an
//     edge list (item i to edge i mod N) under a time-compression
//     factor (replay a simulated day in minutes). Every scheduled item
//     is accounted for: issued == completed + shed + failed.
//
// Results flow through the experiments.RowSink seam: the live-capacity
// row schema (experiments.LiveCapacityHeader) per ramp level, so ramp
// sweeps plot with the same tooling as the simulator's tables and
// experiments.FindKnee can locate the SLO knee, and one outcome table
// (OutcomeHeader) per run in either mode.
package load
