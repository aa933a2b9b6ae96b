package bandwidth

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"streamcache/internal/units"
)

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestNewEmpiricalValidation(t *testing.T) {
	tests := []struct {
		name string
		pts  []CDFPoint
	}{
		{name: "too few points", pts: []CDFPoint{{X: 1, P: 0}}},
		{name: "first P not 0", pts: []CDFPoint{{X: 1, P: 0.1}, {X: 2, P: 1}}},
		{name: "last P not 1", pts: []CDFPoint{{X: 1, P: 0}, {X: 2, P: 0.9}}},
		{name: "X not increasing", pts: []CDFPoint{{X: 2, P: 0}, {X: 2, P: 1}}},
		{name: "P decreasing", pts: []CDFPoint{{X: 1, P: 0}, {X: 2, P: 0.5}, {X: 3, P: 0.4}, {X: 4, P: 1}}},
		{name: "negative X", pts: []CDFPoint{{X: -1, P: 0}, {X: 2, P: 1}}},
		{name: "NaN", pts: []CDFPoint{{X: math.NaN(), P: 0}, {X: 2, P: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewEmpirical(tt.pts); err == nil {
				t.Errorf("NewEmpirical(%v) accepted invalid points", tt.pts)
			}
		})
	}
}

func TestEmpiricalMeanUniform(t *testing.T) {
	// Uniform on [0, 100]: mean 50.
	e, err := NewEmpirical([]CDFPoint{{X: 0, P: 0}, {X: 100, P: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Mean(); math.Abs(got-50) > 1e-12 {
		t.Errorf("Mean() = %v, want 50", got)
	}
}

func TestEmpiricalInverseEndpoints(t *testing.T) {
	e, err := NewEmpirical([]CDFPoint{{X: 10, P: 0}, {X: 20, P: 0.5}, {X: 40, P: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Inverse(0); got != 10 {
		t.Errorf("Inverse(0) = %v, want 10", got)
	}
	if got := e.Inverse(1); got != 40 {
		t.Errorf("Inverse(1) = %v, want 40", got)
	}
	if got := e.Inverse(0.5); got != 20 {
		t.Errorf("Inverse(0.5) = %v, want 20", got)
	}
	if got := e.Inverse(0.75); got != 30 {
		t.Errorf("Inverse(0.75) = %v, want 30", got)
	}
}

func TestEmpiricalCDFAtRoundTrip(t *testing.T) {
	e, err := NewEmpirical([]CDFPoint{{X: 0, P: 0}, {X: 50, P: 0.4}, {X: 100, P: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.01, 0.2, 0.4, 0.5, 0.99} {
		x := e.Inverse(p)
		if got := e.CDFAt(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDFAt(Inverse(%v)) = %v, want %v", p, got, p)
		}
	}
	if got := e.CDFAt(-5); got != 0 {
		t.Errorf("CDFAt(-5) = %v, want 0", got)
	}
	if got := e.CDFAt(1000); got != 1 {
		t.Errorf("CDFAt(1000) = %v, want 1", got)
	}
}

func TestEmpiricalSampleMatchesCDF(t *testing.T) {
	e := NLANR()
	rng := newRNG(17)
	const samples = 100000
	below50, below100 := 0, 0
	for i := 0; i < samples; i++ {
		v := e.Sample(rng)
		if v < units.KBps(50) {
			below50++
		}
		if v < units.KBps(100) {
			below100++
		}
	}
	// Section 3.1: 37% of requests below 50 KB/s, 56% below 100 KB/s.
	if got := float64(below50) / samples; math.Abs(got-0.37) > 0.01 {
		t.Errorf("P[bw < 50KB/s] = %v, want 0.37 (+-0.01)", got)
	}
	if got := float64(below100) / samples; math.Abs(got-0.56) > 0.01 {
		t.Errorf("P[bw < 100KB/s] = %v, want 0.56 (+-0.01)", got)
	}
}

func TestNLANRAnchorsExact(t *testing.T) {
	e := NLANR()
	if got := e.CDFAt(units.KBps(50)); math.Abs(got-0.37) > 1e-12 {
		t.Errorf("CDF(50KB/s) = %v, want 0.37", got)
	}
	if got := e.CDFAt(units.KBps(100)); math.Abs(got-0.56) > 1e-12 {
		t.Errorf("CDF(100KB/s) = %v, want 0.56", got)
	}
	if got := e.Inverse(1); got != units.KBps(450) {
		t.Errorf("largest bandwidth = %v, want 450 KB/s", units.ToKBps(got))
	}
}

func TestNoVariation(t *testing.T) {
	var v NoVariation
	if v.Ratio(newRNG(1)) != 1 || v.CoV() != 0 {
		t.Error("NoVariation must have ratio 1 and CoV 0")
	}
}

func TestVariabilityByName(t *testing.T) {
	for name, want := range map[string]Variability{
		"none": NoVariation{}, "constant": NoVariation{}, "nlanr": NLANRVariability(),
		"measured": MeasuredVariability(), "inria": INRIAVariability(), "fareast": FarEastVariability(),
	} {
		if got, err := VariabilityByName(name); err != nil || got != want {
			t.Errorf("VariabilityByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := VariabilityByName("NLANR"); !errors.Is(err, ErrBadParam) {
		t.Errorf("unknown name: err = %v, want ErrBadParam", err)
	}
}

func TestNewLognormalRatioValidation(t *testing.T) {
	for _, sigma := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewLognormalRatio(sigma); err == nil {
			t.Errorf("sigma=%v accepted", sigma)
		}
	}
	if _, err := NewLognormalRatio(0); err != nil {
		t.Errorf("sigma=0 rejected: %v", err)
	}
}

func TestLognormalRatioMeanOne(t *testing.T) {
	for _, v := range []LognormalRatio{NLANRVariability(), MeasuredVariability(), INRIAVariability(), FarEastVariability()} {
		rng := newRNG(21)
		sum := 0.0
		const n = 100000
		for i := 0; i < n; i++ {
			sum += v.Ratio(rng)
		}
		if got := sum / n; math.Abs(got-1) > 0.02 {
			t.Errorf("sigma=%v: mean ratio %v, want 1 (+-0.02)", v.Sigma, got)
		}
	}
}

func TestNLANRVariabilityMatchesFigure3(t *testing.T) {
	// Figure 3: ~70% of samples are 0.5-1.5x the mean.
	v := NLANRVariability()
	rng := newRNG(22)
	const n = 100000
	within := 0
	over3 := 0
	for i := 0; i < n; i++ {
		r := v.Ratio(rng)
		if r >= 0.5 && r <= 1.5 {
			within++
		}
		if r > 3 {
			over3++
		}
	}
	frac := float64(within) / n
	if frac < 0.65 || frac > 0.75 {
		t.Errorf("P[0.5 <= ratio <= 1.5] = %v, want ~0.70", frac)
	}
	// The ratio tail must occasionally exceed 3x as in Figure 3(a).
	if over3 == 0 {
		t.Error("no ratio samples above 3x; Figure 3 shows a tail beyond 3")
	}
}

func TestVariabilityOrdering(t *testing.T) {
	// The paper's key observation: measured paths vary much less than
	// the NLANR-derived model. CoV must order NLANR > FarEast > Measured* > INRIA.
	nlanr := NLANRVariability().CoV()
	farEast := FarEastVariability().CoV()
	measured := MeasuredVariability().CoV()
	inria := INRIAVariability().CoV()
	if !(nlanr > farEast && farEast > measured && measured > inria && inria > 0) {
		t.Errorf("CoV ordering violated: nlanr=%v farEast=%v measured=%v inria=%v",
			nlanr, farEast, measured, inria)
	}
	if nlanr < 1.5*measured {
		t.Errorf("NLANR CoV (%v) should be well above measured CoV (%v)", nlanr, measured)
	}
}

func TestPathInstantFloor(t *testing.T) {
	p := Path{MeanRate: 10, Variation: NoVariation{}}
	if got := p.Instant(newRNG(1)); got != floorRate {
		t.Errorf("Instant() = %v, want floor %v", got, floorRate)
	}
	p2 := Path{MeanRate: 1e6, Variation: NoVariation{}}
	if got := p2.Instant(newRNG(1)); got != 1e6 {
		t.Errorf("Instant() = %v, want 1e6", got)
	}
}

func TestPathInstantPositiveProperty(t *testing.T) {
	f := func(seed int64, meanRaw uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NLANRVariability()
		p := Path{MeanRate: float64(meanRaw), Variation: v}
		for i := 0; i < 50; i++ {
			if p.Instant(rng) < floorRate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGenerateSeriesValidation(t *testing.T) {
	rng := newRNG(1)
	base := SeriesConfig{Mean: 1e5, Sigma: 0.2, Phi: 0.8, DiurnalAmp: 0.1, Step: time.Minute}
	tests := []struct {
		name   string
		mutate func(*SeriesConfig)
		n      int
	}{
		{name: "zero mean", mutate: func(c *SeriesConfig) { c.Mean = 0 }, n: 10},
		{name: "negative sigma", mutate: func(c *SeriesConfig) { c.Sigma = -1 }, n: 10},
		{name: "phi = 1", mutate: func(c *SeriesConfig) { c.Phi = 1 }, n: 10},
		{name: "diurnal >= 1", mutate: func(c *SeriesConfig) { c.DiurnalAmp = 1 }, n: 10},
		{name: "zero step", mutate: func(c *SeriesConfig) { c.Step = 0 }, n: 10},
		{name: "zero n", mutate: func(*SeriesConfig) {}, n: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := GenerateSeries(cfg, rng, tt.n); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestGenerateSeriesShape(t *testing.T) {
	cfg, err := PresetSeriesConfig(PathINRIA)
	if err != nil {
		t.Fatal(err)
	}
	// 45 hours of 4-minute samples, as in Figure 4.
	n := int(45 * time.Hour / cfg.Step)
	series, err := GenerateSeries(cfg, newRNG(31), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != n {
		t.Fatalf("len(series) = %d, want %d", len(series), n)
	}
	sum := 0.0
	for i, s := range series {
		if s.Rate <= 0 {
			t.Fatalf("sample %d: rate %v <= 0", i, s.Rate)
		}
		if s.T != time.Duration(i)*cfg.Step {
			t.Fatalf("sample %d: T = %v, want %v", i, s.T, time.Duration(i)*cfg.Step)
		}
		sum += s.Rate
	}
	mean := sum / float64(n)
	if math.Abs(mean-cfg.Mean)/cfg.Mean > 0.15 {
		t.Errorf("series mean %v, want ~%v (+-15%%)", mean, cfg.Mean)
	}
}

func TestPresetSeriesVariabilityOrdering(t *testing.T) {
	// Figure 4: "the INRIA server appears to have much lower variability
	// than the other two servers".
	cov := func(p PresetPath) float64 {
		cfg, err := PresetSeriesConfig(p)
		if err != nil {
			t.Fatal(err)
		}
		series, err := GenerateSeries(cfg, newRNG(33), 600)
		if err != nil {
			t.Fatal(err)
		}
		sum, sumSq := 0.0, 0.0
		for _, s := range series {
			sum += s.Rate
		}
		mean := sum / float64(len(series))
		for _, s := range series {
			d := s.Rate - mean
			sumSq += d * d
		}
		return math.Sqrt(sumSq/float64(len(series)-1)) / mean
	}
	inria, taiwan := cov(PathINRIA), cov(PathTaiwan)
	if inria >= taiwan {
		t.Errorf("INRIA CoV (%v) should be below Taiwan CoV (%v)", inria, taiwan)
	}
}

func TestPresetSeriesConfigUnknown(t *testing.T) {
	if _, err := PresetSeriesConfig(PresetPath(99)); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestPresetPathString(t *testing.T) {
	tests := []struct {
		p    PresetPath
		want string
	}{
		{PathINRIA, "INRIA,France"},
		{PathTaiwan, "Taiwan"},
		{PathHongKong, "HongKong"},
		{PresetPath(42), "PresetPath(42)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}
