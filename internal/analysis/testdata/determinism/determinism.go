// Test fixture for the determinism analyzer, type-checked as
// streamcache/internal/sim so the deterministic-package scoping
// applies. Positive cases carry // want comments; the rest are
// negatives that must stay silent.
package sim

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func sleeper() {
	time.Sleep(time.Millisecond) // want "time.Sleep reads the wall clock"
}

func durationMathOK(d time.Duration) float64 {
	return d.Seconds() // negative: duration arithmetic never touches the clock
}

func globalRand() float64 {
	return rand.Float64() // want "process-global source"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "process-global source"
}

func seededRandOK(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // negative: seeded constructor chain
	return rng.Float64()
}

func goroutineLaunch(ch chan int) {
	go func() { ch <- 1 }() // want "goroutine launched in deterministic code"
}

func mapFloatAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "order-sensitive accumulation into sum"
	}
	return sum
}

func mapIntAccumOK(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // negative: integer addition is commutative and exact
	}
	return n
}

func mapAppendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside range over map"
	}
	return keys
}

func mapAppendSortedOK(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // negative: collect-then-sort idiom
	}
	sort.Strings(keys)
	return keys
}

func sliceRangeOK(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v // negative: slice iteration order is fixed
	}
	return sum
}

type sink struct{}

func (sink) Row(cells []string) {}

func mapRowEmit(s sink, m map[string]string) {
	for k, v := range m {
		s.Row([]string{k, v}) // want "Row called inside range over map"
	}
}

func suppressedWallClock() int64 {
	//mediavet:ignore determinism fixture exercising the suppression path
	return time.Now().UnixNano()
}

// Map ranges are found wherever a statement list is: case and comm
// clause bodies, else branches, labeled loops, closures.
func mapRangesInEveryStatementList(kind int, x any, ch chan int, m map[string]float64) func() float64 {
	var sum float64
	switch kind {
	case 0:
		for _, v := range m {
			sum += v // want "order-sensitive accumulation into sum"
		}
	}
	switch x.(type) {
	case int:
		for _, v := range m {
			sum += v // want "order-sensitive accumulation into sum"
		}
	}
	select {
	case <-ch:
		for _, v := range m {
			sum += v // want "order-sensitive accumulation into sum"
		}
	default:
	}
	if kind > 1 {
		return nil
	} else {
		for _, v := range m {
			sum += v // want "order-sensitive accumulation into sum"
		}
	}
outer:
	for _, v := range m {
		if v < 0 {
			continue outer
		}
		sum += v // want "order-sensitive accumulation into sum"
	}
	return func() float64 {
		for _, v := range m {
			sum += v // want "order-sensitive accumulation into sum"
		}
		return sum
	}
}

type acc struct {
	sum  float64
	keys []string
}

func newAcc() *acc { return &acc{} }

// The accumulator is found at the root of any selector, index, star or
// paren chain. What is not tracked: one rooted in a call result, writes
// into a map, plain assignments, appends to a field.
func mapAccumThroughChains(m map[string]time.Duration, a *acc, sums []float64) float64 {
	seen := map[string]bool{}
	var last float64
	for k, d := range m {
		(*a).sum += d.Seconds()     // want "order-sensitive accumulation into a"
		sums[0] += d.Seconds()      // want "order-sensitive accumulation into sums"
		newAcc().sum += d.Seconds() // negative
		seen[k] = true              // negative
		last = d.Seconds()          // negative
		a.keys = append(a.keys, k)  // negative
	}
	return last
}

func consume([]string) {}

func mapAppendUsedBeforeSort(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside range over map"
	}
	consume(keys)
	sort.Strings(keys)
}

func mapAppendSortedLaterOK(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k) // negative: statements that never mention keys may come first
	}
	n := len(m)
	sort.Sort(sort.StringSlice(keys))
	return n
}
