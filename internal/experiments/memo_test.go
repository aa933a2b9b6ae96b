package experiments

import (
	"bytes"
	"testing"

	"streamcache/internal/sim"
)

// streamCSV renders one experiment to CSV bytes at the given scale.
func streamCSV(t *testing.T, key string, s Scale) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Stream(key, s, NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMemoizedSweepByteIdentical is the arena acceptance contract at the
// sweep level: streaming several experiments over one figure-set-shared
// arena (tapes and bandwidth columns compiled by one experiment, replayed
// by the next) must produce the bytes a private arena per experiment
// does, at every Parallelism. (Memoized-vs-fresh is pinned one layer
// down, by sim's TestArenaMetricsBitIdentical and
// TestTapeReplayBitIdentical against a nil arena.)
func TestMemoizedSweepByteIdentical(t *testing.T) {
	// Cover a fixed grid with variability (figure9), the estimator x
	// sigma x policy matrix (stateful EWMA estimators), and an adaptive
	// refinement driver (refined-e).
	keys := []string{"figure9", "scenarios", "refined-e"}
	private := map[string][]byte{}
	for _, key := range keys {
		s := tinyScale()
		s.RefineBudget = 2
		private[key] = streamCSV(t, key, s)
	}
	for _, par := range []int{1, 2, 8} {
		shared := tinyScale()
		shared.RefineBudget = 2
		shared.Parallelism = par
		shared.Arena = sim.NewArena()
		for _, key := range keys {
			if got := streamCSV(t, key, shared); !bytes.Equal(got, private[key]) {
				t.Errorf("%s over a shared arena (Parallelism=%d) diverged from a private arena:\n%s\nwant:\n%s",
					key, par, got, private[key])
			}
		}
	}
}
