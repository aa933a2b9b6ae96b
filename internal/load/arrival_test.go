package load

import (
	"math"
	"math/rand"
	"testing"
)

// vmr returns the variance-to-mean ratio of per-window arrival counts:
// the standard burstiness index (1 for a Poisson process, > 1 for
// bursty/self-similar streams).
func vmr(times []float64, horizon, window float64) float64 {
	n := int(horizon / window)
	counts := make([]float64, n)
	for _, t := range times {
		w := int(t / window)
		if w >= 0 && w < n {
			counts[w]++
		}
	}
	var sum, sumSq float64
	for _, c := range counts {
		sum += c
		sumSq += c * c
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	variance := sumSq/float64(n) - mean*mean
	return variance / mean
}

func TestPoissonInterArrivalStats(t *testing.T) {
	// Goodness of fit for the exponential inter-arrival law: the gap
	// sequence must match the exponential's signature mean 1/rate and
	// coefficient of variation 1.
	for _, tc := range []struct {
		rate    float64
		horizon float64
		seed    int64
	}{
		{rate: 5, horizon: 4000, seed: 1},
		{rate: 50, horizon: 400, seed: 2},
		{rate: 200, horizon: 100, seed: 3},
	} {
		p := Poisson{RateHz: tc.rate}
		rng := rand.New(rand.NewSource(tc.seed))
		times := p.Times(rng, tc.horizon)
		if len(times) < 10000 {
			t.Fatalf("rate %v: only %d events, want >= 10000 for stable statistics", tc.rate, len(times))
		}
		var gaps []float64
		prev := 0.0
		for _, ts := range times {
			if ts <= prev {
				t.Fatalf("rate %v: times not strictly increasing at %v", tc.rate, ts)
			}
			if ts > tc.horizon {
				t.Fatalf("rate %v: time %v beyond horizon %v", tc.rate, ts, tc.horizon)
			}
			gaps = append(gaps, ts-prev)
			prev = ts
		}
		var sum, sumSq float64
		for _, g := range gaps {
			sum += g
			sumSq += g * g
		}
		n := float64(len(gaps))
		mean := sum / n
		sd := math.Sqrt(sumSq/n - mean*mean)
		wantMean := 1 / tc.rate
		if math.Abs(mean-wantMean) > 0.05*wantMean {
			t.Errorf("rate %v: mean gap %v, want %v within 5%%", tc.rate, mean, wantMean)
		}
		// Exponential gaps have CoV exactly 1; deterministic (CoV ~ 0) or
		// heavy-tailed (CoV >> 1) gaps would both flunk this.
		if cov := sd / mean; math.Abs(cov-1) > 0.05 {
			t.Errorf("rate %v: gap CoV %v, want 1 within 5%%", tc.rate, cov)
		}
		if r := vmr(times, tc.horizon, 1); math.Abs(r-1) > 0.4 {
			t.Errorf("rate %v: count VMR %v, want ~1", tc.rate, r)
		}
	}
}

func TestOnOffBurstierThanPoisson(t *testing.T) {
	// The self-similar check: at the same long-run rate, the superposed
	// on-off stream's windowed counts must be overdispersed (VMR well
	// above 1) while the Poisson stream's sit at 1.
	const horizon = 600.0
	onoff := OnOff{Sources: 20, PeakHz: 5, OnShape: 1.5, OffShape: 1.5, MeanOn: 1, MeanOff: 4}
	wantRate := 20.0 // 20 sources x 5 Hz x 1/(1+4) duty cycle
	poisson := Poisson{RateHz: wantRate}

	for seed := int64(1); seed <= 3; seed++ {
		bursty := onoff.Times(rand.New(rand.NewSource(seed)), horizon)
		smooth := poisson.Times(rand.New(rand.NewSource(seed)), horizon)
		// Sanity: comparable volume, strictly increasing, in range.
		if len(bursty) < 1000 {
			t.Fatalf("seed %d: only %d on-off events", seed, len(bursty))
		}
		for i := 1; i < len(bursty); i++ {
			if bursty[i] <= bursty[i-1] {
				t.Fatalf("seed %d: on-off times not strictly increasing at %d", seed, i)
			}
		}
		burstyVMR := vmr(bursty, horizon, 1)
		smoothVMR := vmr(smooth, horizon, 1)
		if smoothVMR > 1.5 {
			t.Errorf("seed %d: Poisson VMR %v, want ~1", seed, smoothVMR)
		}
		if burstyVMR < 2.5 {
			t.Errorf("seed %d: on-off VMR %v, want >= 2.5 (bursty)", seed, burstyVMR)
		}
		if burstyVMR < 2*smoothVMR {
			t.Errorf("seed %d: on-off VMR %v not clearly above Poisson VMR %v", seed, burstyVMR, smoothVMR)
		}
	}
}

func TestProcessesDeterministicPerSeed(t *testing.T) {
	// Same seed -> identical stream; different seed -> different stream.
	// The on-off process has enough sources that one drawing its initial
	// state from anywhere but rng shows: with pOn = 1/3, two runs agree on
	// all 32 initial states with probability (1/9 + 4/9)^32 < 1e-8 (at 4
	// sources it was 1 in 10).
	procs := []Process{
		Poisson{RateHz: 10},
		OnOff{Sources: 32, PeakHz: 10, OnShape: 1.5, OffShape: 1.5, MeanOn: 1, MeanOff: 2},
	}
	for _, p := range procs {
		a := p.Times(rand.New(rand.NewSource(42)), 100)
		b := p.Times(rand.New(rand.NewSource(42)), 100)
		if len(a) != len(b) {
			t.Fatalf("%T: same seed lengths differ: %d vs %d", p, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%T: same seed diverges at %d: %v vs %v", p, i, a[i], b[i])
			}
		}
		c := p.Times(rand.New(rand.NewSource(43)), 100)
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%T: different seeds produced identical streams", p)
		}
	}
}
