package bandwidth

import (
	"math"
	"testing"
	"time"
)

func TestNewEWMAValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewEWMA(alpha); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}
	if _, err := NewEWMA(1); err != nil {
		t.Errorf("alpha=1 rejected: %v", err)
	}
}

func TestEWMANoObservations(t *testing.T) {
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Estimate() != 0 {
		t.Errorf("Estimate() before observations = %v, want 0", e.Estimate())
	}
}

func TestEWMAFirstObservationSeedsEstimate(t *testing.T) {
	e, err := NewEWMA(0.1)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(100)
	if e.Estimate() != 100 {
		t.Errorf("Estimate() after first sample = %v, want 100", e.Estimate())
	}
}

func TestEWMASmoothing(t *testing.T) {
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(100)
	e.Observe(200)
	if got := e.Estimate(); got != 150 {
		t.Errorf("Estimate() = %v, want 150", got)
	}
	e.Observe(150)
	if got := e.Estimate(); got != 150 {
		t.Errorf("Estimate() = %v, want 150", got)
	}
}

func TestEWMAIgnoresBadSamples(t *testing.T) {
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(100)
	e.Observe(0)
	e.Observe(-5)
	e.Observe(math.NaN())
	if got := e.Estimate(); got != 100 {
		t.Errorf("Estimate() = %v, want 100 (bad samples ignored)", got)
	}
}

func TestEWMAConvergesToConstantSignal(t *testing.T) {
	e, err := NewEWMA(0.3)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(10)
	for i := 0; i < 100; i++ {
		e.Observe(500)
	}
	if got := e.Estimate(); math.Abs(got-500) > 1 {
		t.Errorf("Estimate() = %v, want ~500", got)
	}
}

func TestPadhyeThroughputValidation(t *testing.T) {
	valid := func() (int, time.Duration, time.Duration, float64, int) {
		return 1460, 100 * time.Millisecond, 400 * time.Millisecond, 0.01, 1
	}
	mss, rtt, rto, loss, b := valid()
	if _, err := PadhyeThroughput(mss, rtt, rto, loss, b); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	if _, err := PadhyeThroughput(0, rtt, rto, loss, b); err == nil {
		t.Error("mss=0 accepted")
	}
	if _, err := PadhyeThroughput(mss, 0, rto, loss, b); err == nil {
		t.Error("rtt=0 accepted")
	}
	if _, err := PadhyeThroughput(mss, rtt, 0, loss, b); err == nil {
		t.Error("rto=0 accepted")
	}
	if _, err := PadhyeThroughput(mss, rtt, rto, 0, b); err == nil {
		t.Error("loss=0 accepted")
	}
	if _, err := PadhyeThroughput(mss, rtt, rto, 1, b); err == nil {
		t.Error("loss=1 accepted")
	}
	if _, err := PadhyeThroughput(mss, rtt, rto, loss, 0); err == nil {
		t.Error("ackedPerACK=0 accepted")
	}
}

func TestPadhyeThroughputMonotonic(t *testing.T) {
	// Throughput decreases in loss rate and in RTT.
	at := func(rtt time.Duration, loss float64) float64 {
		v, err := PadhyeThroughput(1460, rtt, 4*rtt, loss, 1)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if !(at(100*time.Millisecond, 0.01) > at(100*time.Millisecond, 0.05)) {
		t.Error("throughput must decrease with loss")
	}
	if !(at(50*time.Millisecond, 0.02) > at(200*time.Millisecond, 0.02)) {
		t.Error("throughput must decrease with RTT")
	}
}

func TestPadhyeVsMathisLowLoss(t *testing.T) {
	// At low loss the timeout term vanishes and Padhye approaches the
	// Mathis inverse-sqrt model (with b=1 ACKed packet per ACK the
	// constant differs by sqrt(2/3)/sqrt(2/3) -- check within 2x).
	const mss = 1460
	rtt := 100 * time.Millisecond
	p, err := PadhyeThroughput(mss, rtt, 400*time.Millisecond, 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MathisThroughput(mss, rtt, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if p > m || p < m/3 {
		t.Errorf("Padhye %v should be within [Mathis/3, Mathis] = [%v, %v]", p, m/3, m)
	}
}

func TestMathisThroughputKnownValue(t *testing.T) {
	// MSS=1460B, RTT=100ms, p=0.01: B = 1460/0.1 * sqrt(1.5)/0.1 = 178.8 KB/s.
	got, err := MathisThroughput(1460, 100*time.Millisecond, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := 1460.0 / 0.1 * math.Sqrt(1.5) / 0.1
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("MathisThroughput = %v, want %v", got, want)
	}
}

func TestMathisThroughputValidation(t *testing.T) {
	if _, err := MathisThroughput(0, time.Second, 0.1); err == nil {
		t.Error("mss=0 accepted")
	}
	if _, err := MathisThroughput(1460, 0, 0.1); err == nil {
		t.Error("rtt=0 accepted")
	}
	if _, err := MathisThroughput(1460, time.Second, 0); err == nil {
		t.Error("loss=0 accepted")
	}
	if _, err := MathisThroughput(1460, time.Second, math.NaN()); err == nil {
		t.Error("NaN loss accepted")
	}
}
