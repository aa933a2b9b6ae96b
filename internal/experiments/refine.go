package experiments

import (
	"cmp"
	"slices"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/metrics"
)

// Adaptive sweep refinement: after a coarse pass over one numeric axis
// (underestimation factor e, variability sigma, cache fraction), the
// driver repeatedly bisects the axis intervals with the steepest metric
// gradient until a point budget is exhausted, so sweep points
// concentrate where the response surface bends instead of where the
// grid happened to fall.
//
// Reproducibility contract: refinement decisions are keyed exclusively on
// completed rows — the coarse pass is a full barrier, and each round
// selects a fixed number of intervals (refineRoundPoints, independent
// of Parallelism) from the deterministic point set, evaluates them over
// the worker pool, and re-ranks. Every simulated point derives its
// randomness from the scale seed via the existing SplitMix64 scheme
// (sim.Run splits cfg.Seed per run), so the selected points and the
// streamed rows are byte-identical at any Parallelism.

// refineRoundPoints is the number of intervals bisected per refinement
// round. It is a constant, never the worker count: a round's selections
// may not depend on how many points could run concurrently, or the
// refined point set would vary with Parallelism.
const refineRoundPoints = 2

// minGapDivisor bounds refinement depth: an interval narrower than
// 2 * span/minGapDivisor is never bisected.
const minGapDivisor = 256

// sample is one completed point of an adaptive plan: its position on
// the adaptive axes and the metric refinement ranks by.
type sample struct {
	at     []float64
	metric float64
}

// refiner chooses where an adaptive plan samples next: given every
// completed sample, at most k new positions (none: the response is
// resolved and the remaining budget stays unspent). A pick may read
// nothing but the samples and the refiner's own record of earlier
// picks, so it is identical in every shard and at any Parallelism.
// bisect (one axis) and quadtree.pick (two) are its implementations;
// the round loop, the budget and the barrier between rounds are
// plan.run's.
type refiner func(samples []sample, k int) ([][]float64, error)

// bisect is the one-axis refiner: it halves the intervals between
// neighbouring samples with the steepest metric gradient.
func bisect(samples []sample, k int) ([][]float64, error) {
	if len(samples) < 2 {
		return nil, nil
	}
	samples = slices.Clone(samples)
	slices.SortFunc(samples, func(a, b sample) int { return cmp.Compare(a.at[0], b.at[0]) })
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, p := range samples {
		xs[i], ys[i] = p.at[0], p.metric
	}
	grads, err := metrics.Gradients(xs, ys)
	if err != nil {
		return nil, err
	}
	// The ends of the axis are coarse points, so the span is the coarse
	// grid's whatever has been refined since.
	minGap := 2 * (xs[len(xs)-1] - xs[0]) / minGapDivisor
	// Rank intervals by gradient, ties broken toward the left end of
	// the axis; both keys are pure functions of completed rows.
	type interval struct {
		left int // index into xs
		grad float64
	}
	var candidates []interval
	for i, g := range grads {
		if xs[i+1]-xs[i] > minGap {
			candidates = append(candidates, interval{left: i, grad: g})
		}
	}
	slices.SortStableFunc(candidates, func(a, b interval) int {
		if a.grad != b.grad {
			return cmp.Compare(b.grad, a.grad)
		}
		return cmp.Compare(xs[a.left], xs[b.left])
	})
	mids := make([][]float64, min(k, len(candidates)))
	for i := range mids {
		mids[i] = []float64{(xs[candidates[i].left] + xs[candidates[i].left+1]) / 2}
	}
	return mids, nil
}

// refinedESweep is Figure 9's underestimation axis made adaptive: a
// coarse pass over ESweep at the middle cache fraction, then
// RefineBudget extra points bisecting the steepest service-delay
// gradients — resolving the delay-minimizing e the paper reads off a
// fixed grid.
var refinedESweep = spec{
	name:     "Refined sweep: underestimation factor e, adaptive (delay objective)",
	note:     "coarse ESweep pass, then gradient-guided bisection of avg_delay_s; mid-size cache, NLANR variability",
	axes:     []axisFn{refined(eAxis(core.NewHybrid)), midCacheAxis, variation(bandwidth.NLANRVariability())},
	metrics:  delayMetrics,
	refineOn: "avg_delay_s",
}

// refinedSigmaSweep sweeps the lognormal bandwidth-variability sigma
// adaptively for the PB policy, zooming into the variability levels
// where service delay bends fastest.
var refinedSigmaSweep = spec{
	name:     "Refined sweep: bandwidth-variability sigma, adaptive (PB policy)",
	note:     "coarse SigmaSweep pass, then gradient-guided bisection of avg_delay_s; mid-size cache",
	axes:     []axisFn{refined(sigmaAxis), midCacheAxis, pbPolicy},
	metrics:  delayMetrics,
	refineOn: "avg_delay_s",
}

// refinedCacheSweep sweeps the cache fraction adaptively for the PB
// policy under constant bandwidth, concentrating points where the
// traffic-reduction curve has the steepest knee (Figure 5's x axis).
var refinedCacheSweep = spec{
	name:     "Refined sweep: cache fraction, adaptive (PB policy, constant bandwidth)",
	note:     "coarse CacheFractions pass, then gradient-guided bisection of traffic_reduction",
	axes:     []axisFn{refined(cacheAxis), pbPolicy},
	metrics:  delayMetrics,
	refineOn: "traffic_reduction",
}
