package bandwidth

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// PathConditions are the end-to-end measurables an active prober
// observes: round-trip time and packet loss rate (Section 2.7 - "both
// packet loss rates and round-trip times could be measured using
// end-to-end approaches").
type PathConditions struct {
	RTT  time.Duration
	Loss float64
}

// PadhyeLossForRate inverts the Padhye throughput model: it returns the
// loss rate at which a TCP-friendly transport with the given MSS, RTT
// and RTO achieves the target rate (bytes/s). Solved by bisection; the
// model is strictly decreasing in loss.
func PadhyeLossForRate(rate float64, mss int, rtt, rto time.Duration, ackedPerACK int) (float64, error) {
	if rate <= 0 || math.IsNaN(rate) {
		return 0, fmt.Errorf("%w: rate=%v, want > 0", ErrBadParam, rate)
	}
	const (
		lossLo = 1e-9
		lossHi = 0.99
	)
	atLo, err := PadhyeThroughput(mss, rtt, rto, lossLo, ackedPerACK)
	if err != nil {
		return 0, err
	}
	if rate >= atLo {
		return lossLo, nil // path is cleaner than the model can express
	}
	atHi, err := PadhyeThroughput(mss, rtt, rto, lossHi, ackedPerACK)
	if err != nil {
		return 0, err
	}
	if rate <= atHi {
		return lossHi, nil
	}
	lo, hi := lossLo, lossHi
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		got, err := PadhyeThroughput(mss, rtt, rto, mid, ackedPerACK)
		if err != nil {
			return 0, err
		}
		if got > rate {
			lo = mid // too fast: more loss needed
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ConditionsForRate synthesizes path conditions (RTT fixed by the
// caller, loss solved from the Padhye model) under which a TCP-friendly
// transport achieves the given mean rate. Simulations use it to give
// each path physically consistent measurables.
func ConditionsForRate(rate float64, mss int, rtt, rto time.Duration, ackedPerACK int) (PathConditions, error) {
	loss, err := PadhyeLossForRate(rate, mss, rtt, rto, ackedPerACK)
	if err != nil {
		return PathConditions{}, err
	}
	return PathConditions{RTT: rtt, Loss: loss}, nil
}

// ActiveProber estimates path bandwidth by "sending a few probing
// packets" (Section 2.7): each Probe measures loss and RTT with relative
// noise Jitter and applies the Padhye model. It is the active
// alternative to observing completed transfers.
type ActiveProber struct {
	mss        int
	rto        time.Duration
	acked      int
	conditions PathConditions
	jitter     float64
	rng        *rand.Rand
}

// NewActiveProber builds a prober for a path with the given true
// conditions. jitter is the relative standard deviation of each
// measurement (e.g. 0.1 = 10% noise).
func NewActiveProber(cond PathConditions, mss int, rto time.Duration, ackedPerACK int, jitter float64, seed int64) (*ActiveProber, error) {
	if cond.RTT <= 0 || cond.Loss <= 0 || cond.Loss >= 1 {
		return nil, fmt.Errorf("%w: conditions %+v", ErrBadParam, cond)
	}
	if mss <= 0 || rto <= 0 || ackedPerACK <= 0 {
		return nil, fmt.Errorf("%w: mss=%d rto=%v ackedPerACK=%d", ErrBadParam, mss, rto, ackedPerACK)
	}
	if jitter < 0 || jitter >= 1 || math.IsNaN(jitter) {
		return nil, fmt.Errorf("%w: jitter=%v, want in [0,1)", ErrBadParam, jitter)
	}
	return &ActiveProber{
		mss:        mss,
		rto:        rto,
		acked:      ackedPerACK,
		conditions: cond,
		jitter:     jitter,
		rng:        rand.New(rand.NewSource(seed)),
	}, nil
}

// Probe takes one noisy measurement and returns the estimate it gives.
func (p *ActiveProber) Probe() (float64, error) {
	noisy := func(v float64) float64 {
		f := 1 + float64(p.jitter*p.rng.NormFloat64())
		if f < 0.1 {
			f = 0.1
		}
		return v * f
	}
	rtt := time.Duration(noisy(float64(p.conditions.RTT)))
	loss := noisy(p.conditions.Loss)
	if loss >= 1 {
		loss = 0.99
	}
	est, err := PadhyeThroughput(p.mss, rtt, p.rto, loss, p.acked)
	if err != nil {
		return 0, fmt.Errorf("bandwidth: probe: %w", err)
	}
	return est, nil
}
