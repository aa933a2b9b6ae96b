package bandwidth

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"streamcache/internal/units"
)

const (
	testMSS = 1460
	testRTO = 400 * time.Millisecond
)

var testRTT = 100 * time.Millisecond

func TestPadhyeLossForRateRoundTrip(t *testing.T) {
	for _, rateKBps := range []float64{10, 50, 100, 200} {
		rate := units.KBps(rateKBps)
		loss, err := PadhyeLossForRate(rate, testMSS, testRTT, testRTO, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PadhyeThroughput(testMSS, testRTT, testRTO, loss, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-rate)/rate > 0.01 {
			t.Errorf("rate %v KB/s: Padhye(inverse) = %v, want within 1%%", rateKBps, units.ToKBps(got))
		}
	}
}

func TestPadhyeLossForRateClamps(t *testing.T) {
	// An absurdly fast target clamps to the minimum loss.
	loss, err := PadhyeLossForRate(1e12, testMSS, testRTT, testRTO, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-8 {
		t.Errorf("loss for huge rate = %v, want ~1e-9", loss)
	}
	// An absurdly slow target clamps to the maximum loss.
	loss, err = PadhyeLossForRate(1, testMSS, testRTT, testRTO, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loss < 0.9 {
		t.Errorf("loss for 1 B/s = %v, want ~0.99", loss)
	}
}

func TestPadhyeLossForRateValidation(t *testing.T) {
	if _, err := PadhyeLossForRate(0, testMSS, testRTT, testRTO, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := PadhyeLossForRate(math.NaN(), testMSS, testRTT, testRTO, 1); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := PadhyeLossForRate(100, 0, testRTT, testRTO, 1); err == nil {
		t.Error("zero mss accepted")
	}
}

func TestConditionsForRate(t *testing.T) {
	rate := units.KBps(80)
	cond, err := ConditionsForRate(rate, testMSS, testRTT, testRTO, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cond.RTT != testRTT {
		t.Errorf("RTT = %v, want %v", cond.RTT, testRTT)
	}
	if cond.Loss <= 0 || cond.Loss >= 1 {
		t.Errorf("loss = %v outside (0,1)", cond.Loss)
	}
}

func TestNewActiveProberValidation(t *testing.T) {
	good := PathConditions{RTT: testRTT, Loss: 0.01}
	if _, err := NewActiveProber(PathConditions{RTT: 0, Loss: 0.01}, testMSS, testRTO, 1, 0.1, 1); err == nil {
		t.Error("zero RTT accepted")
	}
	if _, err := NewActiveProber(PathConditions{RTT: testRTT, Loss: 0}, testMSS, testRTO, 1, 0.1, 1); err == nil {
		t.Error("zero loss accepted")
	}
	if _, err := NewActiveProber(good, 0, testRTO, 1, 0.1, 1); err == nil {
		t.Error("zero mss accepted")
	}
	if _, err := NewActiveProber(good, testMSS, testRTO, 1, -0.1, 1); err == nil {
		t.Error("negative jitter accepted")
	}
	if _, err := NewActiveProber(good, testMSS, testRTO, 1, 1, 1); err == nil {
		t.Error("jitter=1 accepted")
	}
}

func TestActiveProberNoiselessMatchesModel(t *testing.T) {
	cond := PathConditions{RTT: testRTT, Loss: 0.02}
	p, err := NewActiveProber(cond, testMSS, testRTO, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PadhyeThroughput(testMSS, testRTT, testRTO, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Without noise every probe measures the true conditions.
	for i := 0; i < 3; i++ {
		got, err := p.Probe()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("noiseless probe %d = %v, want %v", i, got, want)
		}
	}
}

func TestActiveProberNoisyEstimatesCenterOnTruth(t *testing.T) {
	rate := units.KBps(60)
	cond, err := ConditionsForRate(rate, testMSS, testRTT, testRTO, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewActiveProber(cond, testMSS, testRTO, 1, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	const probes = 2000
	for i := 0; i < probes; i++ {
		est, err := p.Probe()
		if err != nil {
			t.Fatal(err)
		}
		if est <= 0 {
			t.Fatalf("probe %d: estimate %v <= 0", i, est)
		}
		sum += est
	}
	mean := sum / probes
	if math.Abs(mean-rate)/rate > 0.15 {
		t.Errorf("mean noisy estimate %v KB/s, want ~%v (+-15%%)",
			units.ToKBps(mean), units.ToKBps(rate))
	}
}

func TestActiveProberDeterministicForSeed(t *testing.T) {
	cond := PathConditions{RTT: testRTT, Loss: 0.01}
	a, err := NewActiveProber(cond, testMSS, testRTO, 1, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewActiveProber(cond, testMSS, testRTO, 1, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ea, err := a.Probe()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := b.Probe()
		if err != nil {
			t.Fatal(err)
		}
		if ea != eb {
			t.Fatalf("probe %d differs for identical seeds", i)
		}
	}
}

func TestInverseMonotoneProperty(t *testing.T) {
	// Higher target rates must require lower loss.
	f := func(r1Raw, r2Raw uint16) bool {
		r1 := units.KBps(float64(r1Raw%400) + 5)
		r2 := units.KBps(float64(r2Raw%400) + 5)
		if r1 == r2 {
			return true
		}
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		l1, err := PadhyeLossForRate(r1, testMSS, testRTT, testRTO, 1)
		if err != nil {
			return false
		}
		l2, err := PadhyeLossForRate(r2, testMSS, testRTT, testRTO, 1)
		if err != nil {
			return false
		}
		return l1 >= l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
