package experiments

import (
	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/sim"
)

// defaultSigmas is the fallback variability grid when the scale carries
// no SigmaSweep.
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

// scenarioMatrixRunner sweeps the three-dimensional scenario grid the paper
// never ran: bandwidth-estimator type x lognormal variability level
// (sigma of the sample-to-mean ratio) x cache policy, at the middle
// cache fraction of the scale. The grid interpolates between the
// paper's isolated comparisons (Figures 7-9 fix two of the three axes)
// and was impractical sequentially: at paper scale it is
// |estimators| x |sigmas| x |policies| full simulations, which the
// parallel engine fans out across cores.
func scenarioMatrixRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.Arena
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	frac := s.midFraction()
	estimators := []struct {
		label   string
		factory sim.EstimatorFactory
	}{
		{"oracle", sim.OracleEstimator},
		{"ewma_0.3", sim.EWMAEstimator(0.3)},
		{"underestimate_0.5", sim.UnderestimatingOracle(0.5)},
		{"active_probe_0.1", sim.ActiveProbeEstimator(0.1)},
	}
	policies := []core.Policy{core.NewIF(), core.NewPB(), core.NewIB()}

	sw := &taskSweep{meta: TableMeta{
		Name: "Scenario matrix: estimator x variability sigma x policy",
		Note: "mid-size cache; sigma 0 = constant bandwidth, 0.25 ~ measured paths, 0.55 ~ NLANR logs",
		Header: []string{
			"sigma", "estimator", "policy",
			"traffic_reduction", "avg_delay_s", "avg_quality", "total_value", "hit_ratio",
		},
	}}
	for _, sigma := range s.sigmas() {
		variation, err := bandwidth.NewLognormalRatio(sigma)
		if err != nil {
			return nil, err
		}
		for _, est := range estimators {
			for _, p := range policies {
				sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
					Workload:   s.workload(),
					CacheBytes: int64(frac * float64(total)),
					Policy:     p,
					Variation:  variation,
					Estimators: est.factory,
					Runs:       s.Runs,
					Seed:       s.Seed,
				}, func(m sim.Metrics) []string {
					return []string{
						f3(sigma), est.label, p.Name(),
						f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay),
						f3(m.AvgStreamQuality), f1(m.TotalAddedValue), f3(m.HitRatio),
					}
				}))
			}
		}
	}
	return sw, nil
}
