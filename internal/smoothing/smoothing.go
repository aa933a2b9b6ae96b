// Package smoothing implements the optimal smoothing algorithm of Salehi,
// Zhang, Kurose and Towsley (SIGMETRICS 1996), which the paper relies on
// for variable-bit-rate content: "For variable bit-rate (VBR) objects, we
// assume the use of the optimal smoothing technique [29] to reduce the
// burstiness of transmission rate" (Section 2.2).
//
// Given per-frame sizes and a client buffer, the algorithm computes the
// shortest-path ("taut string") transmission schedule between the
// cumulative-consumption lower curve and the buffer-shifted upper curve.
// The resulting piecewise-CBR schedule provably minimizes both the peak
// transmission rate and the rate variability among all feasible schedules.
package smoothing

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInput reports an invalid smoothing problem.
var ErrBadInput = errors.New("smoothing: invalid input")

// Segment is one constant-rate run of the schedule: during frame slots
// [Start, End) the sender transmits Rate bytes per slot.
type Segment struct {
	Start int     // first slot (inclusive)
	End   int     // last slot (exclusive)
	Rate  float64 // bytes per frame slot
}

// Schedule is a complete piecewise-CBR transmission plan for one object.
type Schedule struct {
	Segments []Segment
	total    float64
	slots    int
}

// Smooth computes the optimal transmission schedule for the given
// per-frame sizes (bytes) and client buffer (bytes). frames must be
// non-empty with non-negative sizes; buffer must be non-negative.
//
// The schedule starts with an empty buffer at slot 0 and delivers exactly
// the total object size by slot len(frames); at every slot k the
// cumulative bytes sent S(k) satisfies D(k) <= S(k) <= min(D(n), D(k)+B),
// where D is cumulative consumption (no underflow, no buffer overflow).
func Smooth(frames []float64, buffer float64) (*Schedule, error) {
	n := len(frames)
	if n == 0 {
		return nil, fmt.Errorf("%w: no frames", ErrBadInput)
	}
	if buffer < 0 || math.IsNaN(buffer) {
		return nil, fmt.Errorf("%w: buffer=%v, want >= 0", ErrBadInput, buffer)
	}
	// Cumulative consumption D[0..n] and the curve pair (L, U).
	d := make([]float64, n+1)
	for i, f := range frames {
		if f < 0 || math.IsNaN(f) {
			return nil, fmt.Errorf("%w: frame %d size %v, want >= 0", ErrBadInput, i, f)
		}
		d[i+1] = d[i] + f
	}
	total := d[n]
	lower := func(k int) float64 { return d[k] }
	upper := func(k int) float64 {
		if k == n {
			return total // the schedule must end exactly at the object size
		}
		u := d[k] + buffer
		if u > total {
			u = total
		}
		return u
	}

	const eps = 1e-9
	sched := &Schedule{total: total, slots: n}
	start, sv := 0, 0.0 // current anchor point (slot, cumulative bytes)
	for start < n {
		var (
			minSlope = math.Inf(-1)
			maxSlope = math.Inf(1)
			minAt    = -1
			maxAt    = -1
			bent     = false
		)
		for j := start + 1; j <= n; j++ {
			dj := float64(j - start)
			lo := (lower(j) - sv) / dj
			hi := (upper(j) - sv) / dj
			if lo > maxSlope+eps {
				// The lower curve now demands more than the upper curve
				// allowed earlier: bend on the upper curve at maxAt.
				sched.append(start, maxAt, maxSlope)
				sv += maxSlope * float64(maxAt-start)
				start = maxAt
				bent = true
				break
			}
			if hi < minSlope-eps {
				// The upper curve now allows less than the lower curve
				// demanded earlier: bend on the lower curve at minAt.
				sched.append(start, minAt, minSlope)
				sv += minSlope * float64(minAt-start)
				start = minAt
				bent = true
				break
			}
			if lo > minSlope {
				minSlope, minAt = lo, j
			}
			if hi < maxSlope {
				maxSlope, maxAt = hi, j
			}
		}
		if !bent {
			// No binding constraint: go straight to the endpoint.
			rate := (total - sv) / float64(n-start)
			sched.append(start, n, rate)
			start = n
		}
	}
	return sched, nil
}

// append adds a segment, merging with the previous one when the rate is
// unchanged.
func (s *Schedule) append(start, end int, rate float64) {
	if rate < 0 && rate > -1e-9 {
		rate = 0 // clamp numeric noise
	}
	if k := len(s.Segments); k > 0 && math.Abs(s.Segments[k-1].Rate-rate) < 1e-9 {
		s.Segments[k-1].End = end
		return
	}
	s.Segments = append(s.Segments, Segment{Start: start, End: end, Rate: rate})
}

// Cumulative returns the cumulative bytes sent by the end of slot k
// (k in [0, slots]).
func (s *Schedule) Cumulative(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > s.slots {
		k = s.slots
	}
	sum := 0.0
	for _, seg := range s.Segments {
		if k <= seg.Start {
			break
		}
		end := seg.End
		if k < end {
			end = k
		}
		sum += seg.Rate * float64(end-seg.Start)
	}
	return sum
}

// PeakRate returns the largest segment rate (bytes per slot).
func (s *Schedule) PeakRate() float64 {
	peak := 0.0
	for _, seg := range s.Segments {
		if seg.Rate > peak {
			peak = seg.Rate
		}
	}
	return peak
}

// MeanRate returns total bytes divided by the number of slots.
func (s *Schedule) MeanRate() float64 {
	if s.slots == 0 {
		return 0
	}
	return s.total / float64(s.slots)
}

// RateCoV returns the coefficient of variation of the per-slot rate, a
// measure of remaining burstiness (0 for a single CBR run).
func (s *Schedule) RateCoV() float64 {
	if s.slots == 0 {
		return 0
	}
	mean := s.MeanRate()
	if mean == 0 {
		return 0
	}
	sumSq := 0.0
	for _, seg := range s.Segments {
		d := seg.Rate - mean
		sumSq += d * d * float64(seg.End-seg.Start)
	}
	return math.Sqrt(sumSq/float64(s.slots)) / mean
}

// MinimalPeakBound returns the information-theoretic lower bound on the
// peak rate of any feasible schedule for the given problem: the maximum
// over slot pairs i < j of (D(j) - U(i)) / (j - i), with U(0) pinned to 0
// because every schedule starts empty. Smooth always achieves this bound;
// tests verify the equality.
func MinimalPeakBound(frames []float64, buffer float64) (float64, error) {
	n := len(frames)
	if n == 0 {
		return 0, fmt.Errorf("%w: no frames", ErrBadInput)
	}
	if buffer < 0 || math.IsNaN(buffer) {
		return 0, fmt.Errorf("%w: buffer=%v, want >= 0", ErrBadInput, buffer)
	}
	d := make([]float64, n+1)
	for i, f := range frames {
		if f < 0 || math.IsNaN(f) {
			return 0, fmt.Errorf("%w: frame %d size %v, want >= 0", ErrBadInput, i, f)
		}
		d[i+1] = d[i] + f
	}
	total := d[n]
	upper := func(i int) float64 {
		if i == 0 {
			return 0
		}
		u := d[i] + buffer
		if u > total {
			u = total
		}
		return u
	}
	bound := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j <= n; j++ {
			slope := (d[j] - upper(i)) / float64(j-i)
			if slope > bound {
				bound = slope
			}
		}
	}
	return bound, nil
}
