// Test fixture for the determinism analyzer's internal/load scoping:
// only BuildSchedule's call graph is deterministic; Run's wall-clock
// pacing is out of scope by construction.
package load

import "time"

type spec struct{ n int }

// process is an interface dispatched from inside the call graph; the
// analyzer's conservative constructed-type rule must still reach the
// concrete method.
type process interface{ next() int64 }

type poisson struct{ rate float64 }

func (p poisson) next() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func BuildSchedule(s spec) int64 {
	p := buildProcess(s)
	return p.next() + helper(s) + buildBursts()[0].next()
}

func buildProcess(s spec) process {
	return poisson{rate: float64(s.n)}
}

type burst struct{ at []int64 }

func (b *burst) next() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

// A literal whose type is elided inside a slice of pointers constructs
// the pointed-to type; a literal of a foreign or unnamed type brings no
// methods.
func buildBursts() []process {
	bs := []*burst{{at: []int64{1}}}
	return []process{bs[0]}
}

func helper(s spec) int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func Run(s spec) int64 {
	// Open-loop pacing is wall-clock by design and outside the
	// BuildSchedule call graph: no findings here.
	start := time.Now()
	time.Sleep(time.Millisecond)
	return int64(time.Since(start))
}
