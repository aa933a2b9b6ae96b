// Package core implements the paper's cache-management layer: the
// partial-caching policies of Section 2 (IF, PB, IB, their value-based
// variants and the Hybrid e-interpolation), the classical baselines
// (LRU, LFU, the GreedyDual-Size family), the byte-granular cache with
// its utility-ordered eviction, and the offline optimal placements the
// extensions compare against.
//
// # Reproducibility contract
//
// The cache and every policy are deterministic state machines: given
// the same sequence of Access or AccessWithTarget calls (object
// metadata, bandwidth estimates, request order), they produce the same
// hits, evictions and cached-byte counts. No policy may consult wall-clock time, package
// randomness, or map iteration order on a result path — any randomness
// a policy needs must be injected by the caller from a seeded source.
// This is what lets the simulation above (internal/sim) promise
// bit-identical metrics at any parallelism, and the experiments layer
// above that promise byte-identical sweeps across processes.
//
// # Shared-input immutability
//
// Hot-path state lives in dense ID-indexed slice tables sized by
// WithExpectedObjects, and AccessResult.Victims aliases a reusable
// scratch buffer that is only valid until the next Access. Object
// slices handed to a cache or an optimal placement are read-only from
// core's perspective: the sim.Arena shares one []Object across
// concurrent runs and sweep points, so nothing in this package may
// write through them.
package core
