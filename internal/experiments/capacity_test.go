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

// arenaWork runs f and returns what the group calls of a did meanwhile,
// in the order cmd/figures prints them per table: passes, fallbacks,
// shared, reused and ranks (sim.Arena.Groups, sim.Arena.Ranks).
func arenaWork(a *sim.Arena, f func()) [5]int64 {
	read := func() [5]int64 {
		passes, fallbacks, shared, reused := a.Groups()
		return [5]int64{passes, fallbacks, shared, reused, a.Ranks()}
	}
	before := read()
	f()
	after := read()
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// TestFigure5CapacityPasses pins which of figure5's cache-size groups
// one tape pass scores at small scale: PB's and IB's, while IF's
// integer utilities tie on every run seed, so each falls back; every
// point still counts as one evaluation. Streamed alone, the hierarchy's
// 1x1 rows are one flat PB group over the cache sizes, scored in one
// pass; its cluster rows group nothing.
func TestFigure5CapacityPasses(t *testing.T) {
	s := SmallScale()
	s.Arena, s.Counters = sim.NewArena(), &Counters{}
	var ts TableSink
	var err error
	w := arenaWork(s.Arena, func() { err = Stream("figure5", s, &ts) })
	if err != nil {
		t.Fatal(err)
	}
	if p, f, e := w[0], w[1], s.Counters.Evaluations.Load(); p != 2 || f != int64(s.Runs) || e != 15 {
		t.Errorf("figure5: passes=%d fallbacks=%d evaluations=%d, want 2 (PB, IB), %d (IF's seeds) and 15", p, f, e, s.Runs)
	}
	s = tinyScale()
	s.Arena = sim.NewArena()
	w = arenaWork(s.Arena, func() { err = Stream("hierarchy", s, &ts) })
	if err != nil {
		t.Fatal(err)
	}
	if p, f, sh := w[0], w[1], w[2]; p != 1 || f != 0 || sh != 0 {
		t.Errorf("hierarchy: passes=%d fallbacks=%d shared=%d, want 1 (the 1x1 rows), 0 and 0", p, f, sh)
	}
}

// staticKeys are the tables that simulate nothing.
var staticKeys = map[string]bool{"table1": true, "figure2": true, "figure3": true, "figure4": true, "ext-merging": true}

// TestGroupCounts pins how the small-scale tables, streamed in registry
// order through one arena without Declare, are scored — what cmd/figures
// prints as passes=, fallbacks=, shared=, reused= and ranks= — and that every
// simulated row still counts as one evaluation however it was scored.
// Each round declares its own points, so the arena carries answers from
// table to table: figure6's α = 0.73 rows are figure5's IB and PB,
// figure10's IF rows figure5's and figure11's figure8's;
// ablation-estimators' oracle rows are figure8's PB rows, and its
// underestimate_0.5 rows one group replayed per capacity (each seed a
// fallback); scenarios' oracle cells at σ 0.25 and 0.55 are figure8's
// and figure7's middle size, and so are its IF cells under every
// estimator (IF reads no bandwidth: its estimator is dropped), its PB
// ewma_0.3 and underestimate_0.5 cells at σ 0.25 ablation-estimators'
// middle size, and the σ cells of each PB and IB underestimate_0.5 and
// active_probe_0.1 column share one replay (seven shared); its σ 0
// oracle cells each run alone. ablation-eviction's partial rows are
// figure5's PB rows, and its
// whole-object rows one group replayed per capacity; ext-baselines' LFU,
// PB and IB rows are figure8's IF, PB and IB rows (LFU is keyed as IF);
// refined-e's coarse round is
// figure9's middle column, refined-sigma's scenarios' oracle PB cells and
// refined-cache's figure5's PB column, so only their refinement rounds
// score (a σ pair sharing one replay, a cache-size pair in one pass);
// refined-esigma's σ 0.55 column is figure9's and each e's σ 0 and 0.25
// share one replay; the hierarchy's 1x1 rows are figure5's PB rows (one
// edge and one level is the flat simulator). Every EWMA row of PB or IB,
// and every other hierarchy row, is a group of its own: it replays alone
// and counts nothing. A family
// of groups whose policies rank alike sorts each run seed's tape once:
// figure5's PB and IB (IF sorts alone), each α of figure6 and all six e
// of figure9 — but PB-V and IB-V rank apart.
func TestGroupCounts(t *testing.T) {
	want := map[string][5]int64{ // passes, fallbacks, shared, reused, ranks
		"figure5":             {2, 2, 0, 0, 4},
		"figure6":             {6, 0, 0, 10, 6},
		"figure9":             {6, 0, 0, 0, 2},
		"figure10":            {2, 0, 0, 5, 4},
		"figure11":            {2, 0, 0, 5, 4},
		"ablation-eviction":   {0, 2, 0, 5, 0},
		"ablation-estimators": {0, 2, 0, 5, 0},
		"ext-baselines":       {0, 0, 0, 3, 0},
		"scenarios":           {0, 0, 7, 14, 0},
		"refined-e":           {0, 0, 0, 6, 0},
		"refined-sigma":       {0, 0, 2, 3, 0},
		"refined-cache":       {2, 0, 0, 5, 4},
		"refined-esigma":      {0, 0, 6, 6, 0},
		"hierarchy":           {0, 0, 0, 5, 0},
	}
	s := SmallScale()
	s.Arena = sim.NewArena()
	for _, e := range Experiments() {
		s.Counters = &Counters{}
		var rows TableSink
		var err error
		got := arenaWork(s.Arena, func() { err = e.Stream(s, &rows) })
		if err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		c := s.Counters
		if w, ok := want[e.Key]; ok && got != w {
			t.Errorf("%s: passes, fallbacks, shared, reused, ranks = %v, want %v", e.Key, got, w)
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
// owns, and it owns whole families — of figure5's three policies here
// shard 0 owns IF's cache sizes (IF's seed falls back) and shard 1 PB's
// and IB's, one family that ranks once for its two passes — and a
// resumed shard groups only the rows its journal lacks; either way the merged journals are the
// unsharded stream, byte for byte. With no exchange, a shard of
// refined-esigma scores the foreign points of each round itself, through
// the same groups: each e row of the coarse round shares its sigmas'
// replays, and shard 1 owns all three rows (their keys hold figure9's
// cache sizes too, so they are one family of the set), so shard 0
// scores them as foreign points and each shard counts all three rows'
// six shared replays.
func TestCapacityGroupsHoldOwnedRows(t *testing.T) {
	base := tinyScale()
	base.CacheFractions = []float64{0.005, 0.02, 0.05, 0.1}
	base.RefineBudget = 4
	for _, tc := range []struct {
		key  string
		want [2][3]int64 // per shard: passes, fallbacks, shared
	}{
		{"figure5", [2][3]int64{{0, 1, 0}, {2, 0, 0}}},
		{"refined-esigma", [2][3]int64{{0, 0, 6}, {0, 0, 6}}},
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
				s.Arena = sim.NewArena()
				path := filepath.Join(dir, "journal-"+strconv.Itoa(idx)+".jsonl")
				w := arenaWork(s.Arena, func() { journaledStream(t, tc.key, s, path, false) })
				if got := [3]int64{w[0], w[1], w[2]}; got != tc.want[idx] {
					t.Errorf("shard %d: passes, fallbacks, shared = %v, want %v", idx, got, tc.want[idx])
				}
				s.Arena = nil // the resumed shard is a process of its own
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
