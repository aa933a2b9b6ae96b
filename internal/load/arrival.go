package load

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"streamcache/internal/dist"
)

// Process generates the arrival times of one synthetic workload class
// (a trace class has none: BuildSchedule replays the trace's timestamps
// and objects together). Times returns strictly increasing timestamps
// in workload seconds on (0, horizon]; the sequence must be a pure
// function of the rng state, which is what makes schedules
// seed-deterministic.
type Process interface {
	Times(rng *rand.Rand, horizon float64) []float64
}

// Poisson is a homogeneous Poisson arrival process: independent
// exponential inter-arrival gaps at RateHz events per second.
type Poisson struct {
	RateHz float64
}

// Times implements Process.
func (p Poisson) Times(rng *rand.Rand, horizon float64) []float64 {
	proc, err := dist.NewPoissonProcess(p.RateHz)
	if err != nil {
		// Specs are validated before a Process is built; an invalid rate
		// cannot reach here through the public constructors.
		panic(fmt.Sprintf("load: poisson: %v", err))
	}
	var out []float64
	if horizon > 0 {
		out = make([]float64, 0, int(p.RateHz*horizon)+1)
	}
	for {
		t := proc.Next(rng)
		if t > horizon {
			return out
		}
		out = append(out, t)
	}
}

// OnOff is a self-similar (bursty) arrival process: the superposition
// of Sources independent on-off sources, each alternating heavy-tailed
// Pareto ON periods (during which it emits Poisson arrivals at PeakHz)
// with Pareto OFF silences. With tail indices in (1, 2) the period
// lengths have infinite variance, and the superposed stream exhibits
// burstiness across time scales (Willinger et al.) — its
// variance-to-mean ratio of interval counts sits well above the
// Poisson process's 1. The long-run arrival rate is
// Sources x PeakHz x MeanOn / (MeanOn + MeanOff).
type OnOff struct {
	Sources  int     `json:"sources"`   // number of superposed sources, > 0
	PeakHz   float64 `json:"peak_rate"` // per-source arrival rate while ON, > 0
	OnShape  float64 `json:"on_shape"`  // Pareto tail index of ON durations (default 1.5)
	OffShape float64 `json:"off_shape"` // Pareto tail index of OFF durations (default 1.5)
	MeanOn   float64 `json:"mean_on"`   // mean ON duration, seconds (default 1)
	MeanOff  float64 `json:"mean_off"`  // mean OFF duration, seconds (default 4)
}

// Times implements Process. Each source's timeline is generated
// sequentially from the shared rng (source 0 fully, then source 1, ...)
// and the union is sorted, so the merged stream is a pure function of
// the rng state.
func (o OnOff) Times(rng *rand.Rand, horizon float64) []float64 {
	onDist, err := dist.ParetoWithMean(o.OnShape, o.MeanOn)
	if err != nil {
		panic(fmt.Sprintf("load: onoff on-period: %v", err))
	}
	offDist, err := dist.ParetoWithMean(o.OffShape, o.MeanOff)
	if err != nil {
		panic(fmt.Sprintf("load: onoff off-period: %v", err))
	}
	pOn := o.MeanOn / (o.MeanOn + o.MeanOff)
	var out []float64
	for s := 0; s < o.Sources; s++ {
		// Random initial phase: starting every source in OFF at t=0 would
		// synchronize the first bursts.
		on := rng.Float64() < pOn
		now := 0.0
		for now < horizon {
			if on {
				end := now + onDist.Sample(rng)
				if end > horizon {
					end = horizon
				}
				// Poisson arrivals within [now, end).
				t := now
				for {
					t += rng.ExpFloat64() / o.PeakHz
					if t >= end {
						break
					}
					out = append(out, t)
				}
				now = end
			} else {
				now += offDist.Sample(rng)
			}
			on = !on
		}
	}
	slices.Sort(out)
	// Arrival times must be strictly increasing for the schedule merge's
	// tie-breaking to be well defined; nudge exact collisions apart by
	// the smallest representable step.
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			out[i] = math.Nextafter(out[i-1], math.Inf(1))
		}
	}
	return out
}
