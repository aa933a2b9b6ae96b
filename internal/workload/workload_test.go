package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamcache/internal/units"
)

func TestNormalizeAppliesTable1Defaults(t *testing.T) {
	cfg, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumObjects != 5000 {
		t.Errorf("NumObjects = %d, want 5000", cfg.NumObjects)
	}
	if cfg.NumRequests != 100000 {
		t.Errorf("NumRequests = %d, want 100000", cfg.NumRequests)
	}
	if cfg.ZipfAlpha != 0.73 {
		t.Errorf("ZipfAlpha = %v, want 0.73", cfg.ZipfAlpha)
	}
	if cfg.BytesPerFrame != 2*units.KB || cfg.FramesPerSec != 24 {
		t.Errorf("frame config = (%d, %v), want (2KB, 24)", cfg.BytesPerFrame, cfg.FramesPerSec)
	}
	if got := cfg.Rate(); got != units.KBps(48) {
		t.Errorf("Rate() = %v, want 48 KB/s", got)
	}
}

func TestNormalizeRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "negative objects", cfg: Config{NumObjects: -1}},
		{name: "negative requests", cfg: Config{NumRequests: -1}},
		{name: "negative alpha", cfg: Config{ZipfAlpha: -0.5}},
		{name: "NaN alpha", cfg: Config{ZipfAlpha: math.NaN()}},
		{name: "negative frame bytes", cfg: Config{BytesPerFrame: -2}},
		{name: "negative fps", cfg: Config{FramesPerSec: -24}},
		{name: "negative rate", cfg: Config{RequestRate: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.cfg.Normalize(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func smallConfig() Config {
	return Config{NumObjects: 200, NumRequests: 5000, Seed: 1}
}

func TestGenerateShape(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Objects) != 200 {
		t.Fatalf("objects = %d, want 200", len(w.Objects))
	}
	if len(w.Requests) != 5000 {
		t.Fatalf("requests = %d, want 5000", len(w.Requests))
	}
	for i, o := range w.Objects {
		if o.ID != i {
			t.Fatalf("object %d: ID=%d", i, o.ID)
		}
		if o.Duration <= 0 || o.Size <= 0 || o.Rate != units.KBps(48) {
			t.Fatalf("object %d: bad fields %+v", i, o)
		}
		if o.Value < 1 || o.Value >= 10 {
			t.Fatalf("object %d: value %v outside [1,10)", i, o.Value)
		}
		wantSize := int64(o.Duration * o.Rate)
		if o.Size != wantSize {
			t.Fatalf("object %d: size %d, want %d", i, o.Size, wantSize)
		}
	}
	prev := 0.0
	for i, r := range w.Requests {
		if r.Time <= prev {
			t.Fatalf("request %d: time %v not increasing", i, r.Time)
		}
		prev = r.Time
		if r.ObjectID < 0 || r.ObjectID >= 200 {
			t.Fatalf("request %d: object %d out of range", i, r.ObjectID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			t.Fatalf("object %d differs across identical seeds", i)
		}
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs across identical seeds", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Requests {
		if a.Requests[i].ObjectID == b.Requests[i].ObjectID {
			same++
		}
	}
	if same == len(a.Requests) {
		t.Error("different seeds produced identical request streams")
	}
}

func TestTable1TotalStorage(t *testing.T) {
	// Full-scale default workload: ~790 GB of unique objects and ~55
	// minute mean duration, per Table 1.
	w, err := Generate(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	totalGB := units.ToGBytes(w.TotalUniqueBytes())
	if totalGB < 700 || totalGB > 880 {
		t.Errorf("total unique size = %.0f GB, want ~790 GB", totalGB)
	}
	meanMinutes := w.MeanDurationSeconds() / 60
	if meanMinutes < 50 || meanMinutes > 60 {
		t.Errorf("mean duration = %.1f min, want ~55 min", meanMinutes)
	}
}

func TestPopularityFollowsZipf(t *testing.T) {
	cfg := Config{NumObjects: 500, NumRequests: 200000, Seed: 3}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := w.RequestCounts()
	// Object 0 (rank 1) must be the most requested.
	for id := 1; id < len(counts); id++ {
		if counts[id] > counts[0] {
			t.Fatalf("object %d requested %d times > rank-1 object (%d)", id, counts[id], counts[0])
		}
	}
	// Frequency ratio of rank 1 to rank 2 should approximate 2^0.73.
	got := float64(counts[0]) / float64(counts[1])
	want := math.Pow(2, 0.73)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("count(1)/count(2) = %v, want ~%v", got, want)
	}
}

func TestPoissonArrivalRate(t *testing.T) {
	cfg := Config{NumObjects: 10, NumRequests: 50000, RequestRate: 2.5, Seed: 4}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotRate := float64(len(w.Requests)) / w.Span()
	if math.Abs(gotRate-2.5)/2.5 > 0.03 {
		t.Errorf("empirical arrival rate %v, want 2.5 (+-3%%)", gotRate)
	}
}

func TestSpanEmptyWorkload(t *testing.T) {
	w := &Workload{}
	if w.Span() != 0 {
		t.Errorf("Span of empty workload = %v, want 0", w.Span())
	}
	if w.MeanDurationSeconds() != 0 {
		t.Errorf("MeanDuration of empty workload = %v, want 0", w.MeanDurationSeconds())
	}
}

func TestHigherAlphaConcentratesRequests(t *testing.T) {
	// Section 4.2: larger alpha means stronger temporal locality; the
	// top-10 objects must absorb a larger share of requests.
	share := func(alpha float64) float64 {
		w, err := Generate(Config{NumObjects: 1000, NumRequests: 50000, ZipfAlpha: alpha, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		counts := w.RequestCounts()
		top := int64(0)
		for id := 0; id < 10; id++ {
			top += counts[id]
		}
		return float64(top) / float64(len(w.Requests))
	}
	low, high := share(0.5), share(1.2)
	if high <= low {
		t.Errorf("top-10 share: alpha=1.2 gives %v, alpha=0.5 gives %v; want increase", high, low)
	}
}

func TestGenerateRequestsInRangeProperty(t *testing.T) {
	f := func(seed int64, nObjRaw, nReqRaw uint8) bool {
		cfg := Config{
			NumObjects:  int(nObjRaw)%50 + 1,
			NumRequests: int(nReqRaw)%200 + 1,
			Seed:        seed,
		}
		w, err := Generate(cfg)
		if err != nil {
			return false
		}
		for _, r := range w.Requests {
			if r.ObjectID < 0 || r.ObjectID >= cfg.NumObjects || r.Time <= 0 {
				return false
			}
		}
		for _, o := range w.Objects {
			if o.Size <= 0 || o.Duration <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPartialViewingDefaultsToFullSessions(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range w.Requests {
		if r.Fraction != 1 {
			t.Fatalf("request %d: fraction %v, want 1 without partial viewing", i, r.Fraction)
		}
	}
}

func TestPartialViewingValidation(t *testing.T) {
	bad := smallConfig()
	bad.PartialViewProb = 1.5
	if _, err := Generate(bad); err == nil {
		t.Error("PartialViewProb > 1 accepted")
	}
	bad = smallConfig()
	bad.PartialViewProb = -0.1
	if _, err := Generate(bad); err == nil {
		t.Error("negative PartialViewProb accepted")
	}
}

func TestPartialViewingFractions(t *testing.T) {
	cfg := smallConfig()
	cfg.PartialViewProb = 0.4
	cfg.NumRequests = 20000
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	partial := 0
	for i, r := range w.Requests {
		if r.Fraction <= 0 || r.Fraction > 1 {
			t.Fatalf("request %d: fraction %v outside (0,1]", i, r.Fraction)
		}
		if r.Fraction < 1 {
			partial++
			if r.Fraction < minViewFraction {
				t.Fatalf("request %d: fraction %v below minViewFraction", i, r.Fraction)
			}
		}
	}
	got := float64(partial) / float64(len(w.Requests))
	if math.Abs(got-0.4) > 0.02 {
		t.Errorf("partial-session fraction %v, want ~0.4", got)
	}
}

func TestViewingValidate(t *testing.T) {
	cases := []struct {
		name string
		v    Viewing
		ok   bool
	}{
		{"zero value is full", Viewing{}, true},
		{"full", Viewing{Kind: ViewFull}, true},
		{"uniform defaults", Viewing{Kind: ViewUniform}, true},
		{"uniform explicit", Viewing{Kind: ViewUniform, MinFraction: 0.3}, true},
		{"uniform negative min", Viewing{Kind: ViewUniform, MinFraction: -0.1}, false},
		{"uniform min above 1", Viewing{Kind: ViewUniform, MinFraction: 1.5}, false},
		{"lognormal", Viewing{Kind: ViewLognormal, Mu: 4, Sigma: 0.5}, true},
		{"lognormal NaN mu", Viewing{Kind: ViewLognormal, Mu: math.NaN()}, false},
		{"lognormal negative sigma", Viewing{Kind: ViewLognormal, Sigma: -1}, false},
		{"unknown kind", Viewing{Kind: "zipf"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.v.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() accepted invalid distribution")
			}
		})
	}
	// Uniform default fills in MinFraction.
	v, err := Viewing{Kind: ViewUniform}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.MinFraction != 0.05 {
		t.Errorf("uniform default MinFraction = %v, want 0.05", v.MinFraction)
	}
}

func TestViewingFractionBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dists := []Viewing{
		{},
		{Kind: ViewUniform, MinFraction: 0.2},
		{Kind: ViewLognormal, Mu: 3.0, Sigma: 1.0},
	}
	for _, v := range dists {
		v, err := v.Validate()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			f := v.Fraction(rng, 120)
			if f <= 0 || f > 1 {
				t.Fatalf("%+v: fraction %v outside (0, 1]", v, f)
			}
			if v.Kind == ViewUniform && f < v.MinFraction {
				t.Fatalf("uniform fraction %v below MinFraction %v", f, v.MinFraction)
			}
		}
	}
	// Full always watches to the end.
	if f := (Viewing{}).Fraction(rng, 60); f != 1 {
		t.Errorf("full viewing fraction = %v, want 1", f)
	}
	// A lognormal watching far longer than the object runs to the end.
	long := Viewing{Kind: ViewLognormal, Mu: 10, Sigma: 0.1}
	if f := long.Fraction(rng, 1); f != 1 {
		t.Errorf("oversized lognormal fraction = %v, want 1", f)
	}
}
