// Package merge implements the stream-merging techniques the paper's
// Section 6 proposes combining with partial caching: batching and
// patching at the caching proxy.
//
// With plain unicast, every request for an object costs a full stream
// from the origin. Batching delays a request by up to a window W so it
// can share the stream of a concurrent request. Patching lets a client
// join an ongoing stream immediately and fetch only the missed prefix
// (the "patch") as a separate unicast; a threshold T bounds patch length
// by periodically restarting a full stream.
//
// The proxy's cached prefix composes naturally with patching: the first
// cachedBytes of any patch are served by the cache, not the origin, so
// partial caching and stream merging save origin bandwidth
// multiplicatively.
package merge

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInput reports an invalid merge simulation input.
var ErrBadInput = errors.New("merge: invalid input")

// Object is the stream being merged: Size bytes played at Rate bytes/s
// (duration Size/Rate seconds).
type Object struct {
	Size int64
	Rate float64
}

func (o Object) duration() float64 { return float64(o.Size) / o.Rate }

// Result summarizes one merging simulation.
type Result struct {
	// Requests is the number of client requests served.
	Requests int
	// OriginBytes is the total bytes streamed from the origin.
	OriginBytes float64
	// CacheBytes is the total patch bytes served from the cached prefix.
	CacheBytes float64
	// FullStreams counts complete origin transmissions.
	FullStreams int
	// Patches counts partial (patch) transmissions.
	Patches int
	// AvgAddedDelay is the mean extra startup delay imposed by batching
	// (0 for unicast and patching).
	AvgAddedDelay float64
}

// UnicastBytes returns the origin bytes plain unicast would use for the
// same request sequence - the baseline for merging gains.
func (r Result) UnicastBytes(obj Object) float64 {
	return float64(float64(r.Requests) * float64(obj.Size))
}

func validate(times []float64, obj Object) error {
	if obj.Size <= 0 || obj.Rate <= 0 || math.IsNaN(obj.Rate) {
		return fmt.Errorf("%w: object %+v", ErrBadInput, obj)
	}
	for i, t := range times {
		if math.IsNaN(t) {
			return fmt.Errorf("%w: request %d time NaN", ErrBadInput, i)
		}
		if i > 0 && t < times[i-1] {
			return fmt.Errorf("%w: request times not sorted at %d", ErrBadInput, i)
		}
	}
	return nil
}

// Unicast serves every request with a dedicated full stream.
func Unicast(times []float64, obj Object) (Result, error) {
	if err := validate(times, obj); err != nil {
		return Result{}, err
	}
	return Result{
		Requests:    len(times),
		OriginBytes: float64(len(times)) * float64(obj.Size),
		FullStreams: len(times),
	}, nil
}

// Batch groups requests arriving within a window of the batch leader:
// the leader waits `window` seconds, then one full stream serves the
// whole batch. Followers incur less added delay the later they arrive;
// the leader incurs the full window.
func Batch(times []float64, obj Object, window float64) (Result, error) {
	if err := validate(times, obj); err != nil {
		return Result{}, err
	}
	if window < 0 || math.IsNaN(window) {
		return Result{}, fmt.Errorf("%w: window=%v", ErrBadInput, window)
	}
	res := Result{Requests: len(times)}
	if len(times) == 0 {
		return res, nil
	}
	totalDelay := 0.0
	i := 0
	for i < len(times) {
		leader := times[i]
		streamStart := leader + window
		j := i
		for j < len(times) && times[j] <= streamStart {
			totalDelay += streamStart - times[j]
			j++
		}
		res.OriginBytes += float64(obj.Size)
		res.FullStreams++
		i = j
	}
	res.AvgAddedDelay = totalDelay / float64(len(times))
	return res, nil
}

// Patch implements threshold-based patching: the first request (and any
// request arriving more than `threshold` seconds after the last full
// stream started) triggers a full stream; every other request joins the
// ongoing full stream and fetches only the missed prefix of t_elapsed
// seconds as a patch. A cached prefix of cachedBytes serves the head of
// every patch (and of every full stream) from the cache.
func Patch(times []float64, obj Object, threshold float64, cachedBytes int64) (Result, error) {
	if err := validate(times, obj); err != nil {
		return Result{}, err
	}
	if threshold < 0 || math.IsNaN(threshold) {
		return Result{}, fmt.Errorf("%w: threshold=%v", ErrBadInput, threshold)
	}
	if cachedBytes < 0 {
		return Result{}, fmt.Errorf("%w: cachedBytes=%d", ErrBadInput, cachedBytes)
	}
	if cachedBytes > obj.Size {
		cachedBytes = obj.Size
	}
	res := Result{Requests: len(times)}
	if len(times) == 0 {
		return res, nil
	}
	duration := obj.duration()
	lastFull := math.Inf(-1)
	for _, t := range times {
		elapsed := t - lastFull
		if elapsed > threshold || elapsed >= duration {
			// Start a fresh full stream; the cache covers its head.
			res.OriginBytes += float64(obj.Size - cachedBytes)
			res.CacheBytes += float64(cachedBytes)
			res.FullStreams++
			lastFull = t
			continue
		}
		// Join the ongoing stream; patch the missed prefix.
		patchBytes := int64(elapsed * obj.Rate)
		if patchBytes > obj.Size {
			patchBytes = obj.Size
		}
		fromCache := cachedBytes
		if fromCache > patchBytes {
			fromCache = patchBytes
		}
		res.OriginBytes += float64(patchBytes - fromCache)
		res.CacheBytes += float64(fromCache)
		res.Patches++
	}
	return res, nil
}

// OptimalPatchThreshold returns the threshold minimizing expected origin
// bandwidth for Poisson arrivals of rate lambda (Gao & Towsley): the
// classic result T* = (sqrt(2*N+1)-1)/lambda with N = lambda*duration
// expected arrivals per stream duration.
func OptimalPatchThreshold(lambda float64, obj Object) (float64, error) {
	if lambda <= 0 || math.IsNaN(lambda) {
		return 0, fmt.Errorf("%w: lambda=%v", ErrBadInput, lambda)
	}
	if obj.Size <= 0 || obj.Rate <= 0 {
		return 0, fmt.Errorf("%w: object %+v", ErrBadInput, obj)
	}
	n := float64(lambda * obj.duration())
	return (math.Sqrt(2*n+1) - 1) / lambda, nil
}
