package bandwidth

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// SeriesConfig parameterizes a synthetic bandwidth time series for a
// single Internet path, reproducing the structure of the paper's Figure 4
// measurements (one sample every four minutes over 30-45 hours): an AR(1)
// process on log-bandwidth around the path mean plus a diurnal component.
type SeriesConfig struct {
	Mean       float64       // long-term mean bandwidth, bytes/s
	Sigma      float64       // stationary std dev of log-bandwidth
	Phi        float64       // AR(1) coefficient in [0, 1)
	DiurnalAmp float64       // relative amplitude of the 24h cycle, in [0, 1)
	Step       time.Duration // sampling interval (paper: 4 minutes)
}

// SeriesSample is one point of a bandwidth time series.
type SeriesSample struct {
	T    time.Duration
	Rate float64 // bytes/s
}

// GenerateSeries produces n samples of the path's bandwidth evolution.
func GenerateSeries(cfg SeriesConfig, rng *rand.Rand, n int) ([]SeriesSample, error) {
	if cfg.Mean <= 0 || math.IsNaN(cfg.Mean) {
		return nil, fmt.Errorf("%w: series mean=%v, want > 0", ErrBadParam, cfg.Mean)
	}
	if cfg.Sigma < 0 || math.IsNaN(cfg.Sigma) {
		return nil, fmt.Errorf("%w: series sigma=%v, want >= 0", ErrBadParam, cfg.Sigma)
	}
	if cfg.Phi < 0 || cfg.Phi >= 1 {
		return nil, fmt.Errorf("%w: series phi=%v, want in [0,1)", ErrBadParam, cfg.Phi)
	}
	if cfg.DiurnalAmp < 0 || cfg.DiurnalAmp >= 1 {
		return nil, fmt.Errorf("%w: series diurnal amplitude=%v, want in [0,1)", ErrBadParam, cfg.DiurnalAmp)
	}
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("%w: series step=%v, want > 0", ErrBadParam, cfg.Step)
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: series n=%d, want > 0", ErrBadParam, n)
	}
	const day = 24 * time.Hour
	// Innovation std dev that yields stationary variance sigma^2.
	innov := cfg.Sigma * math.Sqrt(1-float64(cfg.Phi*cfg.Phi))
	// Start the AR process at its stationary distribution.
	x := cfg.Sigma * rng.NormFloat64()
	out := make([]SeriesSample, n)
	for i := 0; i < n; i++ {
		t := time.Duration(i) * cfg.Step
		phase := 2 * math.Pi * float64(t) / float64(day)
		diurnal := 1 + float64(cfg.DiurnalAmp*math.Sin(phase))
		// Mean-correct the lognormal factor so E[rate] ~= Mean*diurnal.
		rate := cfg.Mean * diurnal * math.Exp(x-float64(cfg.Sigma*cfg.Sigma/2))
		if rate < floorRate {
			rate = floorRate
		}
		out[i] = SeriesSample{T: t, Rate: rate}
		x = float64(cfg.Phi*x) + float64(innov*rng.NormFloat64())
	}
	return out, nil
}

// PresetPath identifies one of the three measured paths from Figure 4.
type PresetPath int

// The three measured paths of Figure 4.
const (
	PathINRIA    PresetPath = iota + 1 // BU -> INRIA, France: low variability
	PathTaiwan                         // BU -> Taiwan: moderate variability
	PathHongKong                       // BU -> Hong Kong: moderate variability
)

// String returns the path's label.
func (p PresetPath) String() string {
	switch p {
	case PathINRIA:
		return "INRIA,France"
	case PathTaiwan:
		return "Taiwan"
	case PathHongKong:
		return "HongKong"
	default:
		return fmt.Sprintf("PresetPath(%d)", int(p))
	}
}

// PresetSeriesConfig returns a series configuration modeled on one of the
// paper's measured paths: 4-minute samples, path-specific mean and
// variability (Figure 4 shows means of roughly 40-150 KB/s and clearly
// path-dependent spread).
func PresetSeriesConfig(p PresetPath) (SeriesConfig, error) {
	const fourMinutes = 4 * time.Minute
	switch p {
	case PathINRIA:
		return SeriesConfig{Mean: 150 * 1024, Sigma: sigmaINRIA, Phi: 0.8, DiurnalAmp: 0.05, Step: fourMinutes}, nil
	case PathTaiwan:
		return SeriesConfig{Mean: 60 * 1024, Sigma: sigmaFarEast, Phi: 0.7, DiurnalAmp: 0.25, Step: fourMinutes}, nil
	case PathHongKong:
		return SeriesConfig{Mean: 90 * 1024, Sigma: sigmaFarEast, Phi: 0.75, DiurnalAmp: 0.15, Step: fourMinutes}, nil
	default:
		return SeriesConfig{}, fmt.Errorf("%w: unknown preset path %d", ErrBadParam, int(p))
	}
}
