// Package metrics provides the statistical primitives used throughout the
// evaluation harness: streaming mean/variance (Welford), fixed-width
// histograms and finite-difference gradients. These back the bandwidth
// characterization experiments (paper Figures 2-4) and the adaptive
// sweep refinement.
//
// The mutable collectors (Welford, Histogram) are safe for concurrent
// use, so callers may share one collector across goroutines without
// extra locking. Integer aggregates (counts, bins) are exact
// under any interleaving; float accumulators (mean/variance/sum) are
// order-insensitive only up to rounding, which is why the deterministic
// experiment pipelines fill each collector from a single goroutine and
// parallelize across collectors instead.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrBadParam reports an invalid argument.
var ErrBadParam = errors.New("metrics: invalid parameter")

// Welford accumulates mean and variance in a single streaming pass.
// The zero value is ready to use. All methods are safe for concurrent
// use; note that Welford's update is order-insensitive only up to
// floating-point rounding, so deterministic pipelines add from a single
// goroutine while concurrent stress paths accept the rounding noise.
type Welford struct {
	mu   sync.Mutex
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += float64(delta * (x - w.mean))
}

// N returns the number of observations.
func (w *Welford) N() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.mean
}

func (w *Welford) varLocked() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Var returns the unbiased sample variance (0 with fewer than 2 points).
func (w *Welford) Var() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.varLocked()
}

// CoV returns the coefficient of variation Std/Mean (0 when Mean is 0).
func (w *Welford) CoV() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.mean == 0 {
		return 0
	}
	return math.Sqrt(w.varLocked()) / w.mean
}

// Histogram is a fixed-bin-width histogram over [Origin, Origin+Width*Bins).
// Samples outside the range are clamped into the first/last bin so that
// Count always equals the number of Add calls, mirroring how the paper's
// histograms bucket the NLANR bandwidth samples (4 KB/s slots, Figure 2).
// All methods are safe for concurrent use. Bin counts and Count are
// exact integer aggregates, so the bins of a histogram filled from many
// goroutines are identical to a sequential fill; the running sum behind
// Mean is a float64 and can differ in its last bits across schedules
// when sample magnitudes vary widely.
type Histogram struct {
	mu     sync.Mutex
	origin float64
	width  float64
	bins   []int64
	count  int64
	sum    float64
}

// NewHistogram builds a histogram with the given bin origin, bin width and
// bin count.
func NewHistogram(origin, width float64, bins int) (*Histogram, error) {
	if width <= 0 || math.IsNaN(width) {
		return nil, fmt.Errorf("%w: histogram width=%v, want > 0", ErrBadParam, width)
	}
	if bins <= 0 {
		return nil, fmt.Errorf("%w: histogram bins=%d, want > 0", ErrBadParam, bins)
	}
	return &Histogram{origin: origin, width: width, bins: make([]int64, bins)}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	i := int(math.Floor((x - h.origin) / h.width))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bins[i]++
	h.count++
	h.sum += x
}

// Count returns the total number of samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean of the raw samples (not bin midpoints).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bins[i]
}

// BinStart returns the lower edge of bin i.
func (h *Histogram) BinStart(i int) float64 { return h.origin + float64(float64(i)*h.width) }

// CDF returns the empirical CDF evaluated at each bin upper edge. The last
// value is always 1 for a non-empty histogram.
func (h *Histogram) CDF() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.bins))
	if h.count == 0 {
		return out
	}
	var cum int64
	for i, c := range h.bins {
		cum += c
		out[i] = float64(cum) / float64(h.count)
	}
	return out
}

// FractionBelow returns the fraction of samples strictly in bins whose
// upper edge is <= x (bin-resolution approximation of P[X < x]).
func (h *Histogram) FractionBelow(x float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	var cum int64
	for i, c := range h.bins {
		if h.BinStart(i)+h.width > x {
			break
		}
		cum += c
	}
	return float64(cum) / float64(h.count)
}

// Gradients returns the absolute finite-difference slope of each
// adjacent pair of a sampled curve: out[i] = |ys[i+1]-ys[i]| /
// (xs[i+1]-xs[i]). xs must be strictly increasing and at least two
// points long. The adaptive sweep refinement in internal/experiments
// ranks axis intervals by these slopes to decide where to bisect.
func Gradients(xs, ys []float64) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("%w: gradients over %d xs but %d ys", ErrBadParam, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("%w: gradients need at least 2 points, got %d", ErrBadParam, len(xs))
	}
	out := make([]float64, len(xs)-1)
	for i := range out {
		dx := xs[i+1] - xs[i]
		if dx <= 0 || math.IsNaN(dx) {
			return nil, fmt.Errorf("%w: xs not strictly increasing at index %d (%v -> %v)",
				ErrBadParam, i, xs[i], xs[i+1])
		}
		out[i] = math.Abs(ys[i+1]-ys[i]) / dx
	}
	return out, nil
}
