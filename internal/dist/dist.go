// Package dist provides the random distributions the workload and
// bandwidth models are built from: lognormal object durations (GISMO /
// Table 1), uniform object values (Section 2.6), Zipf-like popularity
// with arbitrary skew alpha (the paper uses alpha = 0.73, below the
// range Go's stdlib Zipf accepts), and homogeneous Poisson arrival
// processes.
//
// Every sampler takes the *rand.Rand explicitly so callers control the
// random stream; none keeps hidden global state. This is what makes the
// parallel experiment engine deterministic: each simulation run owns a
// private rand.Rand and the distributions never share entropy across
// runs.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// ErrBadParam reports an invalid distribution parameter.
var ErrBadParam = errors.New("dist: invalid parameter")

// Lognormal is the distribution of exp(N(Mu, Sigma^2)).
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// Sample draws one lognormal variate.
func (l Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + float64(l.Sigma*rng.NormFloat64()))
}

// Mean returns the analytic mean exp(Mu + Sigma^2/2).
func (l Lognormal) Mean() float64 {
	return math.Exp(l.Mu + float64(l.Sigma*l.Sigma/2))
}

// CoV returns the analytic coefficient of variation
// sqrt(exp(Sigma^2) - 1), which depends on Sigma only.
func (l Lognormal) CoV() float64 {
	return math.Sqrt(math.Exp(l.Sigma*l.Sigma) - 1)
}

// MeanOne returns the lognormal with the given sigma whose mean is
// exactly 1 (Mu = -sigma^2/2). The bandwidth package uses it for
// sample-to-mean variability ratios, so that variability never changes
// a path's long-term mean rate.
func MeanOne(sigma float64) Lognormal {
	return Lognormal{Mu: -sigma * sigma / 2, Sigma: sigma}
}

// Uniform is the continuous uniform distribution on [Min, Max).
type Uniform struct {
	Min float64
	Max float64
}

// Sample draws one uniform variate.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Min + float64(rng.Float64()*(u.Max-u.Min))
}

// Mean returns (Min + Max) / 2.
func (u Uniform) Mean() float64 { return (u.Min + u.Max) / 2 }

// Zipf is a Zipf-like popularity distribution over ranks 1..N with
// P(rank = r) proportional to r^-alpha. Unlike math/rand.Zipf it
// accepts any alpha >= 0, in particular the paper's 0.73.
type Zipf struct {
	n     int
	cdf   []float64 // cdf[i] = P(rank <= i+1); cdf[n-1] == 1
	guide []int     // guide[j] = the first i with cdf[i] >= j/n, j = 0..n
}

// NewZipf builds the distribution over ranks 1..n with skew alpha.
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: zipf n=%d, want > 0", ErrBadParam, n)
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("%w: zipf alpha=%v, want finite >= 0", ErrBadParam, alpha)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += math.Pow(float64(r), -alpha)
		cdf[r-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding leaving it at 1-eps
	guide := make([]int, n+1)
	i := 0
	for j := range guide {
		for cdf[i] < float64(j)/float64(n) {
			i++
		}
		guide[j] = i
	}
	return &Zipf{n: n, cdf: cdf, guide: guide}, nil
}

// P returns the probability of rank r (0 outside 1..N).
func (z *Zipf) P(r int) float64 {
	if r < 1 || r > z.n {
		return 0
	}
	if r == 1 {
		return z.cdf[0]
	}
	return z.cdf[r-1] - z.cdf[r-2]
}

// Sample draws one rank in 1..N by inverse-transform over the
// precomputed CDF: the first i with cdf[i] >= u. The guide table narrows
// the binary search to the ranks between the 1/n quantiles around u
// (expected O(1); Chen & Asau's guide tables). The bracket reaches one
// quantile further each way than u*n says, so that rounding in u*n or
// in j/n can never leave the answer outside it: the rank is exactly the
// full search's.
func (z *Zipf) Sample(rng *rand.Rand) int { return z.rank(rng.Float64()) }

// rank is the rank Sample draws for the uniform variate u in [0, 1).
func (z *Zipf) rank(u float64) int {
	j := min(int(u*float64(z.n)), z.n-1)
	lo, hi := z.guide[max(j-1, 0)], z.guide[min(j+2, z.n)]
	i, _ := slices.BinarySearch(z.cdf[lo:hi+1], u)
	return lo + i + 1
}

// Pareto is the Pareto (power-law) distribution with minimum Scale and
// tail index Shape: P(X > x) = (Scale/x)^Shape for x >= Scale. Shapes
// in (1, 2) have a finite mean but infinite variance — the heavy-tailed
// on/off periods whose superposition produces self-similar arrival
// streams (Willinger et al.), used by the open-loop load generator's
// bursty arrival process.
type Pareto struct {
	Shape float64 // tail index, > 0
	Scale float64 // minimum value, > 0
}

// NewPareto validates the parameters.
func NewPareto(shape, scale float64) (Pareto, error) {
	if shape <= 0 || math.IsNaN(shape) || math.IsInf(shape, 0) {
		return Pareto{}, fmt.Errorf("%w: pareto shape=%v, want finite > 0", ErrBadParam, shape)
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return Pareto{}, fmt.Errorf("%w: pareto scale=%v, want finite > 0", ErrBadParam, scale)
	}
	return Pareto{Shape: shape, Scale: scale}, nil
}

// ParetoWithMean returns the Pareto with the given tail index whose mean
// is exactly mean (requires shape > 1, where the mean is finite).
func ParetoWithMean(shape, mean float64) (Pareto, error) {
	if shape <= 1 || math.IsNaN(shape) || math.IsInf(shape, 0) {
		return Pareto{}, fmt.Errorf("%w: pareto shape=%v, want finite > 1 for a finite mean", ErrBadParam, shape)
	}
	if mean <= 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return Pareto{}, fmt.Errorf("%w: pareto mean=%v, want finite > 0", ErrBadParam, mean)
	}
	return NewPareto(shape, mean*(shape-1)/shape)
}

// Sample draws one Pareto variate by inverse transform.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	// 1-U avoids U==0, which would send the variate to +Inf.
	return p.Scale / math.Pow(1-float64(rng.Float64()), 1/p.Shape)
}

// Mean returns Shape*Scale/(Shape-1), or +Inf for Shape <= 1.
func (p Pareto) Mean() float64 {
	if p.Shape <= 1 {
		return math.Inf(1)
	}
	return p.Shape * p.Scale / (p.Shape - 1)
}

// PoissonProcess generates the arrival times of a homogeneous Poisson
// process: successive Next calls return strictly increasing timestamps
// whose inter-arrival gaps are Exp(rate). The zero time origin is 0.
type PoissonProcess struct {
	rate float64
	now  float64
}

// NewPoissonProcess builds a process with the given arrival rate
// (events per second).
func NewPoissonProcess(rate float64) (*PoissonProcess, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("%w: poisson rate=%v, want finite > 0", ErrBadParam, rate)
	}
	return &PoissonProcess{rate: rate}, nil
}

// Next advances the process by one exponential inter-arrival gap and
// returns the new absolute arrival time.
func (p *PoissonProcess) Next(rng *rand.Rand) float64 {
	p.now += rng.ExpFloat64() / p.rate
	return p.now
}
