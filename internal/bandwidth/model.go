// Package bandwidth models Internet path bandwidth the way the paper's
// evaluation does (Section 3.1): a base (long-term mean) bandwidth per
// cache-origin path drawn from an NLANR-log-like distribution, multiplied
// by a sample-to-mean variability ratio whose spread depends on whether
// the variability model comes from the NLANR logs (high, Figure 3) or
// from measured Internet paths (low, Figure 4). It also provides the
// bandwidth estimators of Section 2.7: passive EWMA observation of past
// transfers and the active TCP-throughput model.
//
// All rates are bytes per second.
package bandwidth

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"streamcache/internal/dist"
	"streamcache/internal/units"
)

// ErrBadParam reports an invalid model parameter.
var ErrBadParam = errors.New("bandwidth: invalid parameter")

// CDFPoint is one control point of a piecewise-linear CDF: P[X <= X] = P.
type CDFPoint struct {
	X float64 // bandwidth, bytes/s
	P float64 // cumulative probability
}

// Empirical is a piecewise-linear-CDF bandwidth distribution. It backs
// the reconstructed NLANR distribution.
type Empirical struct {
	pts  []CDFPoint
	mean float64
}

// NewEmpirical builds a distribution from CDF control points. Points must
// be strictly increasing in X, non-decreasing in P, start at P=0 and end
// at P=1.
func NewEmpirical(points []CDFPoint) (*Empirical, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 CDF points, got %d", ErrBadParam, len(points))
	}
	for i, p := range points {
		if math.IsNaN(p.X) || math.IsNaN(p.P) || p.X < 0 {
			return nil, fmt.Errorf("%w: CDF point %d = %+v", ErrBadParam, i, p)
		}
		if i > 0 {
			if p.X <= points[i-1].X {
				return nil, fmt.Errorf("%w: CDF X not strictly increasing at %d", ErrBadParam, i)
			}
			if p.P < points[i-1].P {
				return nil, fmt.Errorf("%w: CDF P decreasing at %d", ErrBadParam, i)
			}
		}
	}
	if points[0].P != 0 {
		return nil, fmt.Errorf("%w: first CDF point P=%v, want 0", ErrBadParam, points[0].P)
	}
	if points[len(points)-1].P != 1 {
		return nil, fmt.Errorf("%w: last CDF point P=%v, want 1", ErrBadParam, points[len(points)-1].P)
	}
	pts := make([]CDFPoint, len(points))
	copy(pts, points)
	mean := 0.0
	for i := 1; i < len(pts); i++ {
		// Density is uniform within each linear segment.
		mean += float64((pts[i].P - pts[i-1].P) * (pts[i].X + pts[i-1].X) / 2)
	}
	return &Empirical{pts: pts, mean: mean}, nil
}

// Sample draws a bandwidth by inverse-transform sampling with linear
// interpolation between control points.
func (e *Empirical) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	return e.Inverse(u)
}

// Inverse returns the bandwidth at cumulative probability p.
func (e *Empirical) Inverse(p float64) float64 {
	if p <= 0 {
		return e.pts[0].X
	}
	if p >= 1 {
		return e.pts[len(e.pts)-1].X
	}
	i := sort.Search(len(e.pts), func(i int) bool { return e.pts[i].P >= p })
	if i == 0 {
		return e.pts[0].X
	}
	lo, hi := e.pts[i-1], e.pts[i]
	if hi.P == lo.P {
		return hi.X
	}
	frac := (p - lo.P) / (hi.P - lo.P)
	return lo.X + float64(frac*(hi.X-lo.X))
}

// CDFAt returns P[X <= x].
func (e *Empirical) CDFAt(x float64) float64 {
	if x <= e.pts[0].X {
		return e.pts[0].P
	}
	last := e.pts[len(e.pts)-1]
	if x >= last.X {
		return last.P
	}
	i := sort.Search(len(e.pts), func(i int) bool { return e.pts[i].X >= x })
	lo, hi := e.pts[i-1], e.pts[i]
	frac := (x - lo.X) / (hi.X - lo.X)
	return lo.P + float64(frac*(hi.P-lo.P))
}

// Mean returns the distribution mean.
func (e *Empirical) Mean() float64 { return e.mean }

// NLANR reconstructs the base bandwidth distribution the paper derived
// from the NLANR UC proxy-cache log (Figure 2). The control points anchor
// the two facts stated in Section 3.1 - 37% of requests below 50 KB/s and
// 56% below 100 KB/s - and spread the remaining mass over a tail reaching
// 450 KB/s as in the published histogram.
//
// The returned value is a shared, immutable package singleton: Empirical
// never mutates after construction, so every caller (each sim tape's
// path means, each synthetic log's servers) reads one table.
func NLANR() *Empirical { return nlanrSingleton() }

var nlanrSingleton = sync.OnceValue(buildNLANR)

func buildNLANR() *Empirical {
	kb := func(v float64) float64 { return units.KBps(v) }
	pts := []CDFPoint{
		{X: kb(8), P: 0},
		{X: kb(15), P: 0.08},
		{X: kb(20), P: 0.16},
		{X: kb(30), P: 0.24},
		{X: kb(40), P: 0.31},
		{X: kb(50), P: 0.37},
		{X: kb(60), P: 0.42},
		{X: kb(75), P: 0.48},
		{X: kb(100), P: 0.56},
		{X: kb(125), P: 0.63},
		{X: kb(150), P: 0.68},
		{X: kb(200), P: 0.77},
		{X: kb(250), P: 0.84},
		{X: kb(300), P: 0.89},
		{X: kb(350), P: 0.93},
		{X: kb(400), P: 0.965},
		{X: kb(450), P: 1},
	}
	e, err := NewEmpirical(pts)
	if err != nil {
		// The points above are constants validated by tests; this cannot
		// fail at runtime.
		panic(fmt.Sprintf("bandwidth: NLANR control points invalid: %v", err))
	}
	return e
}

// Variability draws sample-to-mean bandwidth ratios: the instantaneous
// bandwidth of a path is its mean multiplied by Ratio().
type Variability interface {
	Ratio(rng *rand.Rand) float64
	// CoV returns the analytic coefficient of variation of the ratio.
	CoV() float64
}

// NoVariation always returns ratio 1 (the paper's constant-bandwidth
// assumption of Sections 2.2-2.4 and Figure 5).
type NoVariation struct{}

// Ratio returns 1.
func (NoVariation) Ratio(*rand.Rand) float64 { return 1 }

// CoV returns 0.
func (NoVariation) CoV() float64 { return 0 }

// LognormalRatio draws mean-1 lognormal ratios; Sigma controls the
// variability level.
type LognormalRatio struct {
	Sigma float64

	ln dist.Lognormal
}

// NewLognormalRatio builds a mean-1 lognormal ratio model.
func NewLognormalRatio(sigma float64) (LognormalRatio, error) {
	if sigma < 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return LognormalRatio{}, fmt.Errorf("%w: ratio sigma=%v, want >= 0", ErrBadParam, sigma)
	}
	return LognormalRatio{Sigma: sigma, ln: dist.MeanOne(sigma)}, nil
}

// Ratio draws one sample-to-mean ratio.
func (l LognormalRatio) Ratio(rng *rand.Rand) float64 { return l.ln.Sample(rng) }

// CoV returns sqrt(exp(sigma^2) - 1).
func (l LognormalRatio) CoV() float64 {
	return math.Sqrt(math.Exp(l.Sigma*l.Sigma) - 1)
}

// Sigma levels calibrated in DESIGN.md section 3: the NLANR level places
// ~70% of ratio samples within [0.5, 1.5] as Figure 3 reports; measured
// Internet paths (Figure 4) vary much less.
const (
	sigmaNLANR    = 0.55
	sigmaMeasured = 0.25
	sigmaINRIA    = 0.15
	sigmaFarEast  = 0.30
)

func mustRatio(sigma float64) LognormalRatio {
	l, err := NewLognormalRatio(sigma)
	if err != nil {
		panic(fmt.Sprintf("bandwidth: ratio sigma constant invalid: %v", err))
	}
	return l
}

// NLANRVariability returns the high-variability ratio model derived from
// the NLANR logs (Figure 3): about 70% of samples within 0.5-1.5x the
// mean, with a tail beyond 3x.
func NLANRVariability() LognormalRatio { return mustRatio(sigmaNLANR) }

// MeasuredVariability returns the lower-variability model matching the
// paper's measured Internet paths (Figure 4), used for Figures 8 and 11.
func MeasuredVariability() LognormalRatio { return mustRatio(sigmaMeasured) }

// INRIAVariability models the least-variable measured path (BU->INRIA).
func INRIAVariability() LognormalRatio { return mustRatio(sigmaINRIA) }

// FarEastVariability models the moderately variable measured paths
// (BU->Taiwan, BU->Hong Kong).
func FarEastVariability() LognormalRatio { return mustRatio(sigmaFarEast) }

// VariabilityByName returns the preset a command-line name selects:
// none (or constant), nlanr, measured, inria, fareast.
func VariabilityByName(name string) (Variability, error) {
	switch name {
	case "none", "constant":
		return NoVariation{}, nil
	case "nlanr":
		return NLANRVariability(), nil
	case "measured":
		return MeasuredVariability(), nil
	case "inria":
		return INRIAVariability(), nil
	case "fareast":
		return FarEastVariability(), nil
	default:
		return nil, fmt.Errorf("%w: unknown variability %q", ErrBadParam, name)
	}
}

// Path is a cache-origin path with a fixed mean bandwidth and a
// variability process.
type Path struct {
	MeanRate  float64
	Variation Variability
}

// floorRate is the minimum instantaneous bandwidth, preventing division
// by ~zero in delay formulas (1 KB/s).
const floorRate = 1024.0

// Instant draws the path's instantaneous bandwidth.
func (p Path) Instant(rng *rand.Rand) float64 {
	r := p.MeanRate * p.Variation.Ratio(rng)
	if r < floorRate {
		r = floorRate
	}
	return r
}
