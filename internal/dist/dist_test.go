package dist

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

const samples = 200000

func TestLognormalSampleMean(t *testing.T) {
	// Table 1 duration distribution: Lognormal(3.85, 0.56) in minutes.
	l := Lognormal{Mu: 3.85, Sigma: 0.56}
	rng := rand.New(rand.NewSource(1))
	sum := 0.0
	for i := 0; i < samples; i++ {
		sum += l.Sample(rng)
	}
	got := sum / samples
	want := l.Mean()
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("sample mean %v, analytic mean %v (>2%% off)", got, want)
	}
}

func TestLognormalSampleCoV(t *testing.T) {
	l := Lognormal{Mu: 0, Sigma: 0.56}
	rng := rand.New(rand.NewSource(2))
	var sum, sumSq float64
	for i := 0; i < samples; i++ {
		x := l.Sample(rng)
		sum += x
		sumSq += x * x
	}
	mean := sum / samples
	variance := sumSq/samples - mean*mean
	got := math.Sqrt(variance) / mean
	want := l.CoV()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("sample CoV %v, analytic CoV %v (>5%% off)", got, want)
	}
}

func TestMeanOneProperty(t *testing.T) {
	for _, sigma := range []float64{0, 0.15, 0.25, 0.55, 1.0} {
		l := MeanOne(sigma)
		if got := l.Mean(); math.Abs(got-1) > 1e-12 {
			t.Errorf("MeanOne(%v).Mean() = %v, want 1", sigma, got)
		}
		rng := rand.New(rand.NewSource(3))
		sum := 0.0
		for i := 0; i < samples; i++ {
			sum += l.Sample(rng)
		}
		got := sum / samples
		// Tolerance widens with sigma: the estimator variance is CoV^2/n.
		tol := 0.01 + 3*l.CoV()/math.Sqrt(samples)
		if math.Abs(got-1) > tol {
			t.Errorf("MeanOne(%v) sample mean %v, want 1 (+-%v)", sigma, got, tol)
		}
	}
}

func TestMeanOneZeroSigmaIsDegenerate(t *testing.T) {
	l := MeanOne(0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		if got := l.Sample(rng); got != 1 {
			t.Fatalf("MeanOne(0).Sample = %v, want exactly 1", got)
		}
	}
}

func TestUniformRangeAndMean(t *testing.T) {
	u := Uniform{Min: 1, Max: 10}
	rng := rand.New(rand.NewSource(5))
	sum := 0.0
	for i := 0; i < samples; i++ {
		x := u.Sample(rng)
		if x < 1 || x >= 10 {
			t.Fatalf("sample %v outside [1, 10)", x)
		}
		sum += x
	}
	got := sum / samples
	if math.Abs(got-u.Mean()) > 0.05 {
		t.Errorf("sample mean %v, want %v", got, u.Mean())
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 0.73); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(-5, 0.73); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := NewZipf(10, -0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("NaN alpha accepted")
	}
	if _, err := NewZipf(10, math.Inf(1)); err == nil {
		t.Error("Inf alpha accepted")
	}
}

func TestZipfRankProbabilityMonotone(t *testing.T) {
	z, err := NewZipf(1000, 0.73)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for r := 1; r <= 1000; r++ {
		p := z.P(r)
		if p <= 0 {
			t.Fatalf("P(%d) = %v, want > 0", r, p)
		}
		if r > 1 && p >= z.P(r-1) {
			t.Fatalf("P(%d)=%v >= P(%d)=%v; rank probabilities must strictly decrease", r, p, r-1, z.P(r-1))
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("probabilities sum to %v, want 1", total)
	}
	// The defining Zipf property: P(r)/P(2r) = 2^alpha.
	got := z.P(1) / z.P(2)
	want := math.Pow(2, 0.73)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("P(1)/P(2) = %v, want %v", got, want)
	}
}

func TestZipfSampleBoundsAndSkew(t *testing.T) {
	const n = 100
	z, err := NewZipf(n, 0.73)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	counts := make([]int, n+1)
	for i := 0; i < samples; i++ {
		r := z.Sample(rng)
		if r < 1 || r > n {
			t.Fatalf("sample %d outside 1..%d", r, n)
		}
		counts[r]++
	}
	// Empirical frequencies must track the analytic PMF at head ranks.
	for r := 1; r <= 3; r++ {
		got := float64(counts[r]) / samples
		want := z.P(r)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("empirical P(%d) = %v, analytic %v", r, got, want)
		}
	}
	if counts[1] <= counts[n] {
		t.Errorf("rank 1 count %d not above rank %d count %d", counts[1], n, counts[n])
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	z, err := NewZipf(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 50; r++ {
		if math.Abs(z.P(r)-0.02) > 1e-12 {
			t.Fatalf("alpha=0: P(%d) = %v, want 0.02", r, z.P(r))
		}
	}
}

func TestParetoValidation(t *testing.T) {
	bad := []struct{ shape, scale float64 }{
		{0, 1}, {-1, 1}, {math.NaN(), 1}, {math.Inf(1), 1},
		{1.5, 0}, {1.5, -2}, {1.5, math.NaN()}, {1.5, math.Inf(1)},
	}
	for _, b := range bad {
		if _, err := NewPareto(b.shape, b.scale); err == nil {
			t.Errorf("NewPareto(%v, %v) accepted", b.shape, b.scale)
		}
	}
	// A finite mean needs shape > 1.
	for _, shape := range []float64{0.5, 1} {
		if _, err := ParetoWithMean(shape, 2); err == nil {
			t.Errorf("ParetoWithMean(shape=%v) accepted", shape)
		}
	}
}

func TestParetoSampleBoundsAndMean(t *testing.T) {
	for _, tc := range []struct{ shape, mean float64 }{
		{1.5, 2.0},
		{2.5, 0.5},
	} {
		p, err := ParetoWithMean(tc.shape, tc.mean)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Mean(); math.Abs(got-tc.mean)/tc.mean > 1e-12 {
			t.Errorf("ParetoWithMean(%v, %v).Mean() = %v", tc.shape, tc.mean, got)
		}
		rng := rand.New(rand.NewSource(8))
		sum := 0.0
		for i := 0; i < samples; i++ {
			x := p.Sample(rng)
			if x < p.Scale {
				t.Fatalf("sample %v below scale %v", x, p.Scale)
			}
			sum += x
		}
		got := sum / samples
		// Heavy tails make the sample-mean estimator noisy; 15% covers the
		// shape=1.5 (infinite variance) case at this sample count and seed.
		if math.Abs(got-tc.mean)/tc.mean > 0.15 {
			t.Errorf("shape %v: sample mean %v, want ~%v", tc.shape, got, tc.mean)
		}
	}
}

func TestParetoInfiniteMeanReported(t *testing.T) {
	p, err := NewPareto(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Mean(), 1) {
		t.Errorf("shape=1 mean %v, want +Inf", p.Mean())
	}
}

func TestPoissonProcessValidation(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewPoissonProcess(rate); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
}

func TestPoissonProcessRateAndCoV(t *testing.T) {
	const rate = 2.5
	p, err := NewPoissonProcess(rate)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	prev := 0.0
	var sum, sumSq float64
	for i := 0; i < samples; i++ {
		now := p.Next(rng)
		if now <= prev {
			t.Fatalf("arrival %d: time %v not strictly increasing past %v", i, now, prev)
		}
		gap := now - prev
		sum += gap
		sumSq += gap * gap
		prev = now
	}
	meanGap := sum / samples
	if math.Abs(meanGap-1/rate)*rate > 0.02 {
		t.Errorf("mean inter-arrival %v, want %v (+-2%%)", meanGap, 1/rate)
	}
	variance := sumSq/samples - meanGap*meanGap
	cov := math.Sqrt(variance) / meanGap
	// Exponential gaps have CoV exactly 1.
	if math.Abs(cov-1) > 0.03 {
		t.Errorf("inter-arrival CoV %v, want ~1", cov)
	}
}

// TestZipfGuideMatchesFullSearch: the guide-table bracket never changes
// a rank — for random variates, for every CDF value and its neighbours
// 1e-16 away, and for the 1/n quantiles the guide is cut at and the
// floats either side of them, the rank equals the full binary search's.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 7, 500, 5000} {
		for _, alpha := range []float64{0, 0.5, 0.73, 1.2, 3} {
			z, err := NewZipf(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			us := make([]float64, 0, samples+3*n+3*(n+1))
			for range samples {
				us = append(us, rng.Float64())
			}
			for _, c := range z.cdf {
				us = append(us, c, c-1e-16, c+1e-16)
			}
			for j := 0; j <= n; j++ {
				q := float64(j) / float64(n)
				us = append(us, q, math.Nextafter(q, 0), math.Nextafter(q, 1))
			}
			for _, u := range us {
				if u < 0 || u >= 1 {
					continue // outside rand.Float64's range
				}
				want, _ := slices.BinarySearch(z.cdf, u)
				if got := z.rank(u); got != want+1 {
					t.Fatalf("n=%d alpha=%v u=%v: rank %d, full search %d", n, alpha, u, got, want+1)
				}
			}
		}
	}
}
