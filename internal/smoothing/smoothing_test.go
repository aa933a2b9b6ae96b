package smoothing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSmoothValidation(t *testing.T) {
	if _, err := Smooth(nil, 10); err == nil {
		t.Error("empty frames accepted")
	}
	if _, err := Smooth([]float64{1}, -1); err == nil {
		t.Error("negative buffer accepted")
	}
	if _, err := Smooth([]float64{-1}, 10); err == nil {
		t.Error("negative frame accepted")
	}
	if _, err := Smooth([]float64{math.NaN()}, 10); err == nil {
		t.Error("NaN frame accepted")
	}
	if _, err := Smooth([]float64{1}, math.NaN()); err == nil {
		t.Error("NaN buffer accepted")
	}
}

func TestSmoothUniformFramesIsCBR(t *testing.T) {
	frames := []float64{10, 10, 10, 10, 10}
	s, err := Smooth(frames, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Segments) != 1 {
		t.Fatalf("segments = %d, want 1 (pure CBR)", len(s.Segments))
	}
	if got := s.Segments[0].Rate; math.Abs(got-10) > 1e-9 {
		t.Errorf("rate = %v, want 10", got)
	}
	if s.RateCoV() != 0 {
		t.Errorf("RateCoV = %v, want 0", s.RateCoV())
	}
}

func TestSmoothZeroBufferFollowsFrames(t *testing.T) {
	frames := []float64{5, 20, 1, 8}
	s, err := Smooth(frames, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With no buffer, cumulative sent must equal cumulative consumed.
	want := 0.0
	for k := 0; k <= len(frames); k++ {
		if k > 0 {
			want += frames[k-1]
		}
		if got := s.Cumulative(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("Cumulative(%d) = %v, want %v", k, got, want)
		}
	}
	if got := s.PeakRate(); math.Abs(got-20) > 1e-9 {
		t.Errorf("PeakRate = %v, want 20", got)
	}
}

func TestSmoothLargeBufferSingleSegmentWhenFeasible(t *testing.T) {
	// Increasing cumulative demand that stays below the straight line:
	// late-loaded content smooths to a single CBR run given enough buffer.
	frames := []float64{1, 1, 1, 37} // total 40, 4 slots, mean 10
	s, err := Smooth(frames, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Segments) != 1 {
		t.Fatalf("segments = %+v, want a single segment", s.Segments)
	}
	if got := s.Segments[0].Rate; math.Abs(got-10) > 1e-9 {
		t.Errorf("rate = %v, want 10", got)
	}
}

func TestSmoothFrontLoadedNeedsHighStart(t *testing.T) {
	// A huge first frame forces the schedule to deliver it by slot 1
	// regardless of buffer size.
	frames := []float64{100, 1, 1, 1}
	s, err := Smooth(frames, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Cumulative(1); got < 100-1e-9 {
		t.Errorf("Cumulative(1) = %v, want >= 100 (first frame deadline)", got)
	}
	if got := s.PeakRate(); got < 100-1e-9 {
		t.Errorf("PeakRate = %v, want >= 100", got)
	}
}

func TestSmoothKnownBend(t *testing.T) {
	// Demand: slots of 10,10,40,20 with buffer 20.
	frames := []float64{10, 10, 40, 20}
	s, err := Smooth(frames, 20)
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, frames, 20, s)
	// Peak must match the analytic lower bound.
	bound, err := MinimalPeakBound(frames, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PeakRate(); math.Abs(got-bound) > 1e-6 {
		t.Errorf("PeakRate = %v, want bound %v", got, bound)
	}
}

func TestScheduleAccessors(t *testing.T) {
	frames := []float64{4, 6}
	s, err := Smooth(frames, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanRate() != 5 {
		t.Errorf("MeanRate = %v, want 5", s.MeanRate())
	}
	if got := s.Cumulative(-1); got != 0 {
		t.Errorf("Cumulative(-1) = %v, want 0", got)
	}
	if got := s.Cumulative(99); math.Abs(got-10) > 1e-9 {
		t.Errorf("Cumulative(beyond) = %v, want 10", got)
	}
}

func TestMinimalPeakBoundValidation(t *testing.T) {
	if _, err := MinimalPeakBound(nil, 1); err == nil {
		t.Error("empty frames accepted")
	}
	if _, err := MinimalPeakBound([]float64{1}, -1); err == nil {
		t.Error("negative buffer accepted")
	}
	if _, err := MinimalPeakBound([]float64{-2}, 1); err == nil {
		t.Error("negative frame accepted")
	}
}

func assertFeasible(t *testing.T, frames []float64, buffer float64, s *Schedule) {
	t.Helper()
	n := len(frames)
	d := make([]float64, n+1)
	for i, f := range frames {
		d[i+1] = d[i] + f
	}
	total := d[n]
	prev := 0.0
	for k := 0; k <= n; k++ {
		got := s.Cumulative(k)
		if got < prev-1e-6 {
			t.Fatalf("Cumulative(%d) = %v decreased from %v", k, got, prev)
		}
		prev = got
		if got < d[k]-1e-6 {
			t.Fatalf("underflow at slot %d: sent %v < consumed %v", k, got, d[k])
		}
		limit := d[k] + buffer
		if limit > total {
			limit = total
		}
		if k < n && got > limit+1e-6 {
			t.Fatalf("overflow at slot %d: sent %v > limit %v", k, got, limit)
		}
	}
	if math.Abs(s.Cumulative(n)-total) > 1e-6 {
		t.Fatalf("schedule ends at %v, want %v", s.Cumulative(n), total)
	}
}

func randomFrames(rng *rand.Rand) ([]float64, float64) {
	n := rng.Intn(30) + 1
	frames := make([]float64, n)
	for i := range frames {
		frames[i] = float64(rng.Intn(100))
	}
	buffer := float64(rng.Intn(200))
	return frames, buffer
}

func TestSmoothFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frames, buffer := randomFrames(rng)
		s, err := Smooth(frames, buffer)
		if err != nil {
			return false
		}
		n := len(frames)
		d := make([]float64, n+1)
		for i, fr := range frames {
			d[i+1] = d[i] + fr
		}
		total := d[n]
		prev := -1e-9
		for k := 0; k <= n; k++ {
			got := s.Cumulative(k)
			if got < prev-1e-6 || got < d[k]-1e-6 {
				return false
			}
			limit := d[k] + buffer
			if limit > total {
				limit = total
			}
			if k < n && got > limit+1e-6 {
				return false
			}
			prev = got
		}
		return math.Abs(s.Cumulative(n)-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSmoothAchievesMinimalPeakProperty(t *testing.T) {
	// The taut-string schedule's peak rate must equal the analytic lower
	// bound on every instance - this is the optimality guarantee.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frames, buffer := randomFrames(rng)
		s, err := Smooth(frames, buffer)
		if err != nil {
			return false
		}
		bound, err := MinimalPeakBound(frames, buffer)
		if err != nil {
			return false
		}
		return math.Abs(s.PeakRate()-bound) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSmoothLargerBufferNeverWorseProperty(t *testing.T) {
	// Peak rate is non-increasing in buffer size.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frames, buffer := randomFrames(rng)
		s1, err := Smooth(frames, buffer)
		if err != nil {
			return false
		}
		s2, err := Smooth(frames, buffer+50)
		if err != nil {
			return false
		}
		return s2.PeakRate() <= s1.PeakRate()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSmoothSegmentsCoverAllSlotsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frames, buffer := randomFrames(rng)
		s, err := Smooth(frames, buffer)
		if err != nil {
			return false
		}
		next := 0
		for _, seg := range s.Segments {
			if seg.Start != next || seg.End <= seg.Start || seg.Rate < 0 {
				return false
			}
			next = seg.End
		}
		return next == len(frames)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSmoothingReducesBurstiness(t *testing.T) {
	// A bursty VBR trace smoothed with a decent buffer must have lower
	// rate CoV than the raw trace.
	rng := rand.New(rand.NewSource(99))
	frames := make([]float64, 500)
	for i := range frames {
		frames[i] = 50 + 200*rng.Float64()
		if rng.Intn(20) == 0 {
			frames[i] += 2000 // I-frame spikes
		}
	}
	raw := rawCoV(frames)
	s, err := Smooth(frames, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.RateCoV(); got >= raw {
		t.Errorf("smoothed CoV %v, want < raw CoV %v", got, raw)
	}
}

func rawCoV(frames []float64) float64 {
	mean := 0.0
	for _, f := range frames {
		mean += f
	}
	mean /= float64(len(frames))
	ss := 0.0
	for _, f := range frames {
		ss += (f - mean) * (f - mean)
	}
	return math.Sqrt(ss/float64(len(frames))) / mean
}
