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

// TestConditionsForRate: the conditions a simulated path is given for
// its mean rate are an RTT of the caller's choosing and the loss
// PadhyeLossForRate solves at it, which must be a probability in (0,1)
// under which the model gives the rate back.
func TestConditionsForRate(t *testing.T) {
	rate := units.KBps(80)
	loss, err := PadhyeLossForRate(rate, testMSS, testRTT, testRTO, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || loss >= 1 {
		t.Errorf("loss = %v outside (0,1)", loss)
	}
	got, err := PadhyeThroughput(testMSS, testRTT, testRTO, loss, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-rate)/rate > 0.01 {
		t.Errorf("model at (RTT %v, loss %v) = %v KB/s, want %v within 1%%",
			testRTT, loss, units.ToKBps(got), units.ToKBps(rate))
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
