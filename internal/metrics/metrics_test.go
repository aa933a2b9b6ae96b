package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Var() != 0 {
		t.Errorf("zero Welford not all-zero: n=%d mean=%v var=%v", w.N(), w.Mean(), w.Var())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("Mean() = %v, want 5", got)
	}
	// Unbiased variance of this classic dataset is 32/7.
	if got, want := w.Var(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Var() = %v, want %v", got, want)
	}
}

func TestWelfordSingleValue(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Var() != 0 {
		t.Errorf("single value: mean=%v var=%v", w.Mean(), w.Var())
	}
}

func TestWelfordCoV(t *testing.T) {
	var w Welford
	for _, x := range []float64{10, 20} {
		w.Add(x)
	}
	want := math.Sqrt(w.Var()) / 15
	if got := w.CoV(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CoV() = %v, want %v", got, want)
	}
	var zero Welford
	zero.Add(0)
	if got := zero.CoV(); got != 0 {
		t.Errorf("CoV of zero-mean = %v, want 0", got)
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		var w Welford
		sum := 0.0
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
			w.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Var()-variance) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewHistogramRejectsBadParams(t *testing.T) {
	if _, err := NewHistogram(0, 0, 10); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewHistogram(0, -1, 10); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5) // [0,10), [10,20), ..., [40,50)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 5, 9.99, 10, 25, 49, 100, -3} {
		h.Add(x)
	}
	if h.Count() != 8 {
		t.Fatalf("Count() = %d, want 8", h.Count())
	}
	wantBins := []int64{4, 1, 1, 0, 2} // -3 clamps to bin 0, 100 clamps to bin 4
	for i, want := range wantBins {
		if got := h.Bin(i); got != want {
			t.Errorf("Bin(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramBinStart(t *testing.T) {
	h, err := NewHistogram(100, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{100, 104, 108} {
		if got := h.BinStart(i); got != want {
			t.Errorf("BinStart(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestHistogramCDF(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1.5, 1.6, 3.2} {
		h.Add(x)
	}
	cdf := h.CDF()
	want := []float64{0.25, 0.75, 0.75, 1}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-12 {
			t.Errorf("CDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

func TestHistogramCDFEmptyAllZero(t *testing.T) {
	h, err := NewHistogram(0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range h.CDF() {
		if v != 0 {
			t.Fatal("empty histogram CDF not all-zero")
		}
	}
}

func TestHistogramFractionBelow(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Add(float64(i)) // uniform 0..99
	}
	if got := h.FractionBelow(50); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FractionBelow(50) = %v, want 0.5", got)
	}
	if got := h.FractionBelow(0); got != 0 {
		t.Errorf("FractionBelow(0) = %v, want 0", got)
	}
	if got := h.FractionBelow(1000); got != 1 {
		t.Errorf("FractionBelow(1000) = %v, want 1", got)
	}
}

func TestHistogramMean(t *testing.T) {
	h, err := NewHistogram(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 2, 3} {
		h.Add(x)
	}
	if got := h.Mean(); got != 2 {
		t.Errorf("Mean() = %v, want 2", got)
	}
	empty, _ := NewHistogram(0, 1, 10)
	if got := empty.Mean(); got != 0 {
		t.Errorf("empty Mean() = %v, want 0", got)
	}
}

func TestHistogramCDFMonotonicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := NewHistogram(0, 1+rng.Float64()*10, 1+rng.Intn(50))
		if err != nil {
			return false
		}
		n := rng.Intn(200) + 1
		for i := 0; i < n; i++ {
			h.Add(rng.NormFloat64() * 30)
		}
		cdf := h.CDF()
		prev := 0.0
		for _, v := range cdf {
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return math.Abs(cdf[len(cdf)-1]-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGradients(t *testing.T) {
	xs := []float64{0, 1, 3}
	ys := []float64{2, 4, 3}
	got, err := Gradients(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0.5}
	if len(got) != len(want) {
		t.Fatalf("gradients = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("gradient %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGradientsRejectsBadInput(t *testing.T) {
	if _, err := Gradients([]float64{0, 1}, []float64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Gradients([]float64{0}, []float64{0}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Gradients([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("non-increasing xs accepted")
	}
	if _, err := Gradients([]float64{1, 0}, []float64{1, 2}); err == nil {
		t.Error("decreasing xs accepted")
	}
}
