package proxy

import (
	"fmt"
	"io"
	"math"
	"time"
)

// rateLimitedWriter throttles writes to the given rate (bytes/s) with a
// token bucket, simulating a constrained cache-origin path. A zero or
// negative rate means unlimited.
type rateLimitedWriter struct {
	w      io.Writer
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
	sleep  func(time.Duration)
}

// newRateLimitedWriter wraps w with a token bucket of the given rate and
// a burst of 1/8 second's worth of bytes (at least 4 KB).
func newRateLimitedWriter(w io.Writer, rate float64) *rateLimitedWriter {
	burst := rate / 8
	if burst < 4096 {
		burst = 4096
	}
	return &rateLimitedWriter{
		w:      w,
		rate:   rate,
		burst:  burst,
		tokens: burst,
		now:    time.Now,
		sleep:  time.Sleep,
	}
}

// Write throttles then forwards p, chunk by chunk.
func (r *rateLimitedWriter) Write(p []byte) (int, error) {
	if r.rate <= 0 {
		return r.w.Write(p)
	}
	written := 0
	for written < len(p) {
		chunk := len(p) - written
		if max := int(r.burst); chunk > max {
			chunk = max
		}
		r.waitFor(float64(chunk))
		n, err := r.w.Write(p[written : written+chunk])
		written += n
		if err != nil {
			return written, fmt.Errorf("proxy: rate-limited write: %w", err)
		}
		if f, ok := r.w.(interface{ Flush() }); ok {
			f.Flush()
		}
	}
	return written, nil
}

// waitFor consumes `need` tokens, sleeping off any debt. The bucket is
// allowed to go negative and each sleep is credited with the time that
// actually elapsed, not the time requested: timers routinely oversleep,
// and zeroing the bucket on wake-up — as an earlier version did —
// discarded the tokens accrued during the overshoot on every chunk,
// pinning delivered throughput systematically below the configured
// rate. The burst cap still bounds a positive balance (idle accrual and
// retained oversleep credit alike), so burstiness stays limited.
func (r *rateLimitedWriter) waitFor(need float64) {
	now := r.now()
	if r.last.IsZero() {
		r.last = now
	}
	r.tokens += float64(now.Sub(r.last).Seconds() * r.rate)
	r.last = now
	if r.tokens > r.burst {
		r.tokens = r.burst
	}
	r.tokens -= need
	for r.tokens < 0 {
		// Round the wait up to a whole nanosecond: truncation would ask
		// for slightly less time than the debt, leaving a sub-ns deficit
		// whose next wait truncates to zero — a busy spin until the
		// clock happens to advance.
		r.sleep(time.Duration(math.Ceil(-r.tokens / r.rate * float64(time.Second))))
		now = r.now()
		r.tokens += float64(now.Sub(r.last).Seconds() * r.rate)
		r.last = now
		if r.tokens > r.burst {
			r.tokens = r.burst
		}
	}
}
