package sim

// Splittable seeding (SplitMix64). Every run of an experiment draws its
// private seed as SplitSeed(base, run), so:
//
//   - runs never share or re-derive each other's random streams,
//   - two base seeds that differ by 1 do not produce overlapping run
//     sequences (the flaw of the naive base+run scheme, where run 1 of
//     seed 1 equals run 0 of seed 2), and
//   - the seed of run r is a pure function of (base, r), independent of
//     which worker executes the run or in what order — the foundation of
//     the engine's bit-identical-results-at-any-parallelism contract.

// splitmix64 is the finalizer of the SplitMix64 generator (Steele,
// Lea & Flood, OOPSLA 2014); it bijectively scrambles its input.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SplitSeed derives the seed of independent stream `stream` from a base
// seed. It is deterministic and collision-resistant across both
// arguments.
func SplitSeed(base, stream int64) int64 {
	return int64(splitmix64(splitmix64(uint64(base)) ^ uint64(stream)))
}
