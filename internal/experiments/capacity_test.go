package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"streamcache/internal/sim"
)

// TestFigure5CapacityPasses pins which of figure5's cache-size groups
// one tape pass scores at small scale: PB's and IB's, while IF's
// integer utilities tie on every run seed, so each falls back; every
// point still counts as one evaluation. The hierarchy groups nothing.
func TestFigure5CapacityPasses(t *testing.T) {
	s := SmallScale()
	s.Arena, s.Counters = sim.NewArena(), &Counters{}
	var ts TableSink
	if err := Stream("figure5", s, &ts); err != nil {
		t.Fatal(err)
	}
	c := s.Counters
	if p, f, e := c.CapacityPasses.Load(), c.CapacityFallbacks.Load(), c.Evaluations.Load(); p != 2 || f != int64(s.Runs) || e != 15 {
		t.Errorf("figure5: passes=%d fallbacks=%d evaluations=%d, want 2 (PB, IB), %d (IF's seeds) and 15", p, f, e, s.Runs)
	}
	s = tinyScale()
	s.Counters = &Counters{}
	if err := Stream("hierarchy", s, &ts); err != nil {
		t.Fatal(err)
	}
	if p, f, sh := s.Counters.CapacityPasses.Load(), s.Counters.CapacityFallbacks.Load(), s.Counters.SharedReplays.Load(); p != 0 || f != 0 || sh != 0 {
		t.Errorf("hierarchy: passes=%d fallbacks=%d shared=%d, want none", p, f, sh)
	}
}

// staticKeys are the tables that simulate nothing.
var staticKeys = map[string]bool{"table1": true, "figure2": true, "figure3": true, "figure4": true, "ext-merging": true}

// TestGroupCounts pins how the small-scale tables' groups are scored —
// what cmd/figures prints as passes=, fallbacks= and shared= — and that
// every simulated row still counts as one evaluation however its group
// scored it. scenarios shares a replay between the three sigmas of each
// oracle (estimator, policy) cell: 3 × 2; its other estimators observe
// the bandwidth, so their members replay alone. refined-sigma's coarse
// sigmas share one replay (2) and so does each refinement round's pair
// (1 + 1); refined-esigma's coarse grid shares one per e (6 × 2), its
// refinement pairs sit at two values of e. refined-cache scores its
// coarse round and each refinement round in one pass.
func TestGroupCounts(t *testing.T) {
	want := map[string][3]int64{ // passes, fallbacks, shared
		"figure5":        {2, 2, 0},
		"figure9":        {6, 0, 0},
		"hierarchy":      {0, 0, 0},
		"scenarios":      {0, 0, 6},
		"refined-sigma":  {0, 0, 4},
		"refined-esigma": {0, 0, 12},
		"refined-cache":  {3, 0, 0},
	}
	s := SmallScale()
	s.Arena = sim.NewArena()
	for _, e := range Experiments() {
		s.Counters = &Counters{}
		var rows TableSink
		if err := e.Stream(s, &rows); err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		c := s.Counters
		got := [3]int64{c.CapacityPasses.Load(), c.CapacityFallbacks.Load(), c.SharedReplays.Load()}
		if w, ok := want[e.Key]; ok && got != w {
			t.Errorf("%s: passes, fallbacks, shared = %v, want %v", e.Key, got, w)
		}
		evals := int64(len(rows.Table().Rows))
		if staticKeys[e.Key] {
			evals = 0
		}
		if c.Evaluations.Load() != evals {
			t.Errorf("%s: %d evaluations, want %d", e.Key, c.Evaluations.Load(), evals)
		}
	}
}

// TestCapacityGroupsHoldOwnedRows: a shard groups only the rows it
// owns — shard 0 of 2 owns two cache sizes of each of figure5's
// policies here, and refined-esigma's e rows split their sigmas between
// the shards — and a resumed shard only the rows its journal lacks;
// either way the merged journals are the unsharded stream, byte for
// byte.
func TestCapacityGroupsHoldOwnedRows(t *testing.T) {
	base := tinyScale()
	base.CacheFractions = []float64{0.005, 0.02, 0.05, 0.1}
	base.RefineBudget = 4
	for _, tc := range []struct {
		key  string
		want [2][3]int64 // per shard: passes, fallbacks, shared
	}{
		{"figure5", [2][3]int64{{2, 1, 0}, {2, 1, 0}}},
		{"refined-esigma", [2][3]int64{{0, 0, 2}, {0, 0, 1}}},
	} {
		t.Run(tc.key, func(t *testing.T) {
			var want bytes.Buffer
			if err := Stream(tc.key, base, NewCSVSink(&want)); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			in := make([]io.Reader, 2)
			for idx := range in {
				s := base
				s.Shard = Shard{Index: idx, Count: 2}
				s.Counters = &Counters{}
				path := filepath.Join(dir, "journal-"+strconv.Itoa(idx)+".jsonl")
				journaledStream(t, tc.key, s, path, false)
				c := s.Counters
				if got := [3]int64{c.CapacityPasses.Load(), c.CapacityFallbacks.Load(), c.SharedReplays.Load()}; got != tc.want[idx] {
					t.Errorf("shard %d: passes, fallbacks, shared = %v, want %v", idx, got, tc.want[idx])
				}
				full, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				journaledStream(t, tc.key, s, path, true)
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				in[idx] = f
			}
			var got bytes.Buffer
			if err := MergeShards(in, NewCSVSink(&got)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("merged resumed shards differ from the unsharded stream:\n%s\nwant:\n%s", got.String(), want.String())
			}
		})
	}
}
