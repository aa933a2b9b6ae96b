package experiments

import "streamcache/internal/sim"

// sigmas is the variability grid of the sigma axis: the scale's
// SigmaSweep, or a three-level fallback when it carries none.
func (s Scale) sigmas() []float64 {
	if len(s.SigmaSweep) > 0 {
		return s.SigmaSweep
	}
	return []float64{0, 0.25, 0.55}
}

// midFraction is the scale's middle cache fraction, the fixed cache
// size of the single-axis scenario sweeps.
func (s Scale) midFraction() float64 {
	return s.CacheFractions[len(s.CacheFractions)/2]
}

// scenarioMatrix sweeps the three-dimensional scenario grid the paper
// never ran: bandwidth-estimator type x lognormal variability level
// (sigma of the sample-to-mean ratio) x cache policy, at the middle
// cache fraction of the scale. The grid interpolates between the
// paper's isolated comparisons (Figures 7-9 fix two of the three axes)
// and was impractical sequentially: at paper scale it is
// |estimators| x |sigmas| x |policies| full simulations, which the
// parallel engine fans out across cores.
var scenarioMatrix = spec{
	name: "Scenario matrix: estimator x variability sigma x policy",
	note: "mid-size cache; sigma 0 = constant bandwidth, 0.25 ~ measured paths, 0.55 ~ NLANR logs",
	axes: []axisFn{
		sigmaAxis,
		choice("estimator",
			estimator("oracle", nil),
			estimator("ewma_0.3", sim.EWMA{Alpha: 0.3}),
			estimator("underestimate_0.5", sim.Underestimate{E: 0.5}),
			estimator("active_probe_0.1", sim.ActiveProbe{Jitter: 0.1})),
		delayPolicies,
		cacheAt(Scale.midFraction),
	},
	metrics: policyMetrics,
}
