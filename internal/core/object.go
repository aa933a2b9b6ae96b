// Package core implements the paper's contribution: cache-management
// algorithms for edge proxies that may cache a prefix (partial object) of
// a streaming media object and jointly deliver content from cache and
// origin server. The algorithms are stream-aware (they know object
// bit-rates and durations) and network-aware (they weigh the measured
// bandwidth b_i of each cache-origin path).
//
// Policies implemented (Sections 2.3-2.6 and 4.1):
//
//   - IF:  integral frequency-based caching (whole objects, hottest first)
//   - PB:  partial bandwidth-based caching (prefix (r_i-b_i)T_i, utility F_i/b_i)
//   - IB:  integral bandwidth-based caching (whole objects, utility F_i/b_i)
//   - Hybrid(e): bandwidth under-estimation spectrum between PB (e=1) and IB (e=0)
//   - PB-V/IB-V: value-maximizing variants (Section 2.6)
//   - LRU/LFU: classical baselines (Section 3.3)
//
// The replacement machinery is a utility priority queue (Section 2.4)
// with byte-granular eviction: the lowest-utility entry loses suffix
// bytes first, mirroring the fractional-knapsack structure of the
// optimal placement.
package core

// Object describes one streaming media object as the cache sees it.
type Object struct {
	ID       int
	Size     int64   // total bytes (Duration * Rate for CBR objects)
	Duration float64 // playback duration, seconds
	Rate     float64 // CBR encoding rate, bytes/s
	Value    float64 // added value when served immediately (Section 2.6)
}

// AccessStats is the per-object bookkeeping the replacement algorithm
// maintains: "Our cache replacement algorithm estimates the request
// arrival rate of each object by recording the number (or frequency) of
// requests to each object" (Section 2.4).
type AccessStats struct {
	Freq       int64   // requests observed so far (F_i)
	LastAccess float64 // time of most recent request
}

// StartupDelay returns the client-perceived delay before playout can
// begin: [S - T*b - x]+ / b (Section 2.2), where x is the cached prefix
// size and b the instantaneous bandwidth from the origin.
func StartupDelay(obj Object, cachedBytes int64, bw float64) float64 {
	if bw <= 0 {
		bw = 1
	}
	deficit := float64(obj.Size) - float64(obj.Duration*bw) - float64(cachedBytes)
	if deficit <= 0 {
		return 0
	}
	return deficit / bw
}

// StreamQuality returns the fraction of the full stream that immediate
// playout can sustain: min(1, (x + T*b)/S) (Section 3.3; e.g. 3 of 4
// layers = 0.75).
func StreamQuality(obj Object, cachedBytes int64, bw float64) float64 {
	if obj.Size <= 0 {
		return 1
	}
	q := (float64(cachedBytes) + float64(obj.Duration*bw)) / float64(obj.Size)
	if q > 1 {
		return 1
	}
	if q < 0 {
		return 0
	}
	return q
}

// ImmediatelyServable reports whether cache and origin can jointly
// support immediate full-quality playout: x >= S - T*b (Section 2.6).
func ImmediatelyServable(obj Object, cachedBytes int64, bw float64) bool {
	return float64(cachedBytes) >= float64(obj.Size)-float64(obj.Duration*bw)
}
