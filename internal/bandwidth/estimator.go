package bandwidth

import (
	"fmt"
	"math"
	"time"
)

// EWMA is the passive estimator of Section 2.7: it tracks an
// exponentially weighted moving average of observed transfer throughput.
// "Such approaches do not introduce additional network overhead, but may
// not be accurate as bandwidth may change drastically over time."
type EWMA struct {
	alpha float64
	est   float64
	seen  bool
}

// NewEWMA builds an EWMA estimator with smoothing factor alpha in (0, 1];
// larger alpha weights recent samples more.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("%w: EWMA alpha=%v, want in (0,1]", ErrBadParam, alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Estimate returns the smoothed estimate (0 before any observation).
func (e *EWMA) Estimate() float64 {
	if !e.seen {
		return 0
	}
	return e.est
}

// Observe folds one throughput sample into the average.
func (e *EWMA) Observe(sample float64) {
	if sample <= 0 || math.IsNaN(sample) {
		return
	}
	if !e.seen {
		e.est = sample
		e.seen = true
		return
	}
	e.est = float64(e.alpha*sample) + float64((1-e.alpha)*e.est)
}

// PadhyeThroughput returns the steady-state TCP throughput predicted by
// the model of Padhye et al. [22], which Section 2.7 cites as the basis
// for active bandwidth measurement of TCP-friendly streaming transports:
//
//	B = MSS / (RTT*sqrt(2bp/3) + T0*min(1, 3*sqrt(3bp/8))*p*(1+32p^2))
//
// with loss probability p, ACKed-packets-per-ACK b, and retransmission
// timeout T0. The result is bytes/s.
func PadhyeThroughput(mss int, rtt, rto time.Duration, loss float64, ackedPerACK int) (float64, error) {
	if mss <= 0 {
		return 0, fmt.Errorf("%w: mss=%d, want > 0", ErrBadParam, mss)
	}
	if rtt <= 0 || rto <= 0 {
		return 0, fmt.Errorf("%w: rtt=%v rto=%v, want > 0", ErrBadParam, rtt, rto)
	}
	if loss <= 0 || loss >= 1 || math.IsNaN(loss) {
		return 0, fmt.Errorf("%w: loss=%v, want in (0,1)", ErrBadParam, loss)
	}
	if ackedPerACK <= 0 {
		return 0, fmt.Errorf("%w: ackedPerACK=%d, want > 0", ErrBadParam, ackedPerACK)
	}
	b := float64(ackedPerACK)
	rttSec := rtt.Seconds()
	rtoSec := rto.Seconds()
	wait := float64(rttSec * math.Sqrt(2*b*loss/3))
	toTerm := float64(rtoSec * math.Min(1, 3*math.Sqrt(3*b*loss/8)) * loss * (1 + float64(32*loss*loss)))
	return float64(mss) / (wait + toTerm), nil
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

// MathisThroughput returns the simpler inverse-sqrt(p) TCP throughput
// model ("inversely proportional to the square root of packet loss rate
// and round-trip time", Section 2.7): B = MSS/RTT * sqrt(3/2) / sqrt(p).
func MathisThroughput(mss int, rtt time.Duration, loss float64) (float64, error) {
	if mss <= 0 {
		return 0, fmt.Errorf("%w: mss=%d, want > 0", ErrBadParam, mss)
	}
	if rtt <= 0 {
		return 0, fmt.Errorf("%w: rtt=%v, want > 0", ErrBadParam, rtt)
	}
	if loss <= 0 || loss >= 1 || math.IsNaN(loss) {
		return 0, fmt.Errorf("%w: loss=%v, want in (0,1)", ErrBadParam, loss)
	}
	return float64(mss) / rtt.Seconds() * math.Sqrt(1.5) / math.Sqrt(loss), nil
}
