package metrics

import (
	"math"
	"sync"
	"testing"
)

// TestWelfordConcurrentHammer drives one shared collector from many
// goroutines (readers interleaved with writers) and checks the exact
// aggregates afterwards. Run under -race this is the engine's proof
// that sharing collectors across sweep workers is sound.
func TestWelfordConcurrentHammer(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5000
	)
	var w Welford
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Values 1..perG, same multiset from every goroutine.
				w.Add(float64(i + 1))
				if i%128 == 0 {
					// Interleave reads with writes.
					_ = w.Mean()
					_ = w.CoV()
					_ = w.Var()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := w.N(); got != goroutines*perG {
		t.Errorf("N = %d, want %d (lost updates)", got, goroutines*perG)
	}
	wantMean := float64(perG+1) / 2
	if got := w.Mean(); math.Abs(got-wantMean)/wantMean > 1e-9 {
		t.Errorf("Mean = %v, want %v", got, wantMean)
	}
	// Uniform 1..n variance: (n^2 - 1) / 12. Welford's m2 update is
	// order-sensitive in floating point, so interleaving perturbs the
	// last digits; a loose relative bound still catches lost updates.
	wantVar := (float64(perG)*float64(perG) - 1) / 12
	if got := w.Var(); math.Abs(got-wantVar)/wantVar > 1e-3 {
		t.Errorf("Var = %v, want %v", got, wantVar)
	}
}

// TestHistogramConcurrentHammer checks that a histogram filled from
// many goroutines is bin-for-bin identical to a sequential fill:
// integer bin counts are exact regardless of interleaving.
func TestHistogramConcurrentHammer(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5000
		bins       = 32
	)
	shared, err := NewHistogram(0, 1, bins)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := NewHistogram(0, 1, bins)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				x := float64((g*perG + i) % (bins + 4)) // includes clamped overflow
				shared.Add(x)
				if i%256 == 0 {
					_ = shared.CDF()
					_ = shared.FractionBelow(float64(bins) / 2)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			sequential.Add(float64((g*perG + i) % (bins + 4)))
		}
	}

	if shared.Count() != sequential.Count() {
		t.Fatalf("count %d != sequential %d", shared.Count(), sequential.Count())
	}
	for i := 0; i < bins; i++ {
		if shared.Bin(i) != sequential.Bin(i) {
			t.Errorf("bin %d: concurrent %d != sequential %d", i, shared.Bin(i), sequential.Bin(i))
		}
	}
	if shared.Mean() != sequential.Mean() {
		// Sum of the same multiset in different order can differ only by
		// float rounding; integer-valued samples keep it exact.
		t.Errorf("mean %v != sequential %v", shared.Mean(), sequential.Mean())
	}
}
