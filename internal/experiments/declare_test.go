package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"streamcache/internal/sim"
)

// simulatedKeys are the registry's keys but the static tables'.
func simulatedKeys() []string {
	var keys []string
	for _, e := range Experiments() {
		if !staticKeys[e.Key] {
			keys = append(keys, e.Key)
		}
	}
	return keys
}

// TestDeclaredTablesByteIdentical is Declare's contract: every simulated
// table streamed in one arena after Declare(all) — later tables taking
// the Metrics earlier tables' group calls scored — is byte for byte the
// table streamed with an arena of its own, at Parallelism 1 and 4, and
// as two shards, each resumed from half of its journal, whose merge is
// the unsharded stream. Without Declare, one arena across the tables
// shares only what each round declares as it runs, and those bytes are
// the own-arena bytes too. ablation-estimators and scenarios hold
// estimator rows beside oracle rows of the same policy, workload and
// cache: only the oracle rows may be shared.
func TestDeclaredTablesByteIdentical(t *testing.T) {
	keys := simulatedKeys()
	want := map[string][]byte{}
	for _, key := range keys {
		var csv bytes.Buffer
		if err := Stream(key, SmallScale(), NewCSVSink(&csv)); err != nil {
			t.Fatal(err)
		}
		want[key] = csv.Bytes()
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			s := SmallScale()
			s.Parallelism, s.Arena = par, sim.NewArena()
			if err := Declare(s, keys...); err != nil {
				t.Fatal(err)
			}
			reused := map[string]int64{}
			for _, key := range keys {
				var csv bytes.Buffer
				var err error
				w := arenaWork(s.Arena, func() { err = Stream(key, s, NewCSVSink(&csv)) })
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(csv.Bytes(), want[key]) {
					t.Errorf("%s after Declare:\n%s\nwant:\n%s", key, csv.String(), want[key])
				}
				reused[key] = w[3]
			}
			// figure7 is figure5 under NLANR variability: all 15 rows come
			// from figure5's calls. ablation-estimators' 5 oracle rows are
			// figure8's PB rows; its EWMA and underestimating rows are its own.
			if reused["figure7"] != 15 || reused["ablation-estimators"] != 5 {
				t.Errorf("reused: figure7 %d, ablation-estimators %d; want 15 and 5", reused["figure7"], reused["ablation-estimators"])
			}
		})
	}

	t.Run("undeclared", func(t *testing.T) {
		s := SmallScale()
		s.Arena = sim.NewArena()
		for _, key := range keys {
			var csv bytes.Buffer
			if err := Stream(key, s, NewCSVSink(&csv)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csv.Bytes(), want[key]) {
				t.Errorf("%s in a shared arena without Declare:\n%s\nwant:\n%s", key, csv.String(), want[key])
			}
		}
	})

	t.Run("shards", func(t *testing.T) {
		dir := t.TempDir()
		out := make([]map[string]*bytes.Buffer, 2)
		for idx := range out {
			s := SmallScale()
			s.Shard = Shard{Index: idx, Count: 2}
			path := filepath.Join(dir, fmt.Sprintf("journal%d.jsonl", idx))
			streamDeclared(t, s, keys, path, false, nil)
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			out[idx] = map[string]*bytes.Buffer{}
			streamDeclared(t, s, keys, path, true, out[idx])
		}
		for _, key := range keys {
			var csv bytes.Buffer
			if err := MergeShards([]io.Reader{out[0][key], out[1][key]}, NewCSVSink(&csv)); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if !bytes.Equal(csv.Bytes(), want[key]) {
				t.Errorf("%s: merged resumed shards after Declare:\n%s\nwant:\n%s", key, csv.String(), want[key])
			}
		}
	})
}

// streamDeclared streams keys as s.Shard does in one figures process:
// one arena and one journal at path (resumed or created) for all of
// them, Declare first, each table's rows into jsonl[key] when jsonl is
// not nil.
func streamDeclared(t *testing.T, s Scale, keys []string, path string, resume bool, jsonl map[string]*bytes.Buffer) {
	t.Helper()
	var j *Journal
	var err error
	if resume {
		j, err = ResumeJournal(path, s.Fingerprint())
	} else {
		j, err = CreateJournal(path, s.Fingerprint())
	}
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s.Journal, s.Arena = j, sim.NewArena()
	if err := Declare(s, keys...); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		sink := MultiSink{}
		if jsonl != nil {
			jsonl[key] = &bytes.Buffer{}
			sink = append(sink, NewJSONLSink(jsonl[key]))
		}
		if err := Stream(key, s, sink); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArenaForgetsAnsweredInputs pins the arena's release rule on the
// figure sets cmd/figures runs: the seven keys of the benchmark's sweep
// workloads, their five fixed grids alone, then every table, each set
// in the registry order cmd/figures streams a selection in, declared
// and streamed on one arena. The fixed grids are the set whose tapes
// only pending members keep: in the other two, the refinement tables'
// holds (Declare holds them ahead) keep the default workload's tapes to
// the end whatever is pending. After each table the arena holds only the tapes and columns a
// pending member or an adaptive table still to end reads — after
// figure6 only the default workload's tapes (Runs of them), after the
// last table none — and it has compiled each (workload, seed) tape and
// (tape, base, variation) column exactly once: the cumulative compiles
// equal those of an arena that never releases.
func TestArenaForgetsAnsweredInputs(t *testing.T) {
	type pin struct{ liveTapes, liveCols, tapes, rates int }
	for _, set := range []struct {
		name string
		want []pin // per table, in stream order
		keys []string
	}{
		{"bench", []pin{
			{2, 4, 2, 4}, {2, 4, 8, 10}, {2, 4, 8, 10}, {2, 8, 8, 14},
			{2, 8, 8, 14}, {2, 8, 8, 14}, {0, 0, 8, 16},
		}, []string{"figure5", "figure6", "figure7", "figure9", "hierarchy", "refined-e", "refined-esigma"}},
		{"bench fixed grids", []pin{
			{2, 2, 2, 4}, {2, 2, 8, 10}, {2, 2, 8, 10}, {2, 0, 8, 10}, {0, 0, 8, 10},
		}, []string{"figure5", "figure6", "figure7", "figure9", "hierarchy"}},
		{"all", []pin{
			{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, // static tables
			{2, 8, 2, 8}, {2, 8, 8, 14}, {2, 8, 8, 14}, {2, 8, 8, 14}, // figure5-8
			{2, 8, 8, 14}, {2, 8, 8, 14}, {2, 8, 8, 14}, {2, 8, 8, 14}, // figure9-12
			{2, 8, 8, 14}, {2, 8, 8, 14}, {2, 8, 8, 14}, {2, 8, 12, 18}, // ablations, ext-merging, ext-partial-viewing
			{2, 8, 12, 18}, {2, 8, 12, 18}, {2, 8, 12, 18}, {2, 8, 12, 18}, // ext-active-probing, ext-baselines, scenarios, hierarchy
			{2, 8, 12, 18}, {2, 16, 12, 26}, {2, 16, 12, 26}, {0, 0, 12, 26}, // refined-e, -sigma, -cache, -esigma
		}, nil},
	} {
		t.Run(set.name, func(t *testing.T) {
			keys := set.keys
			if keys == nil {
				for _, e := range Experiments() {
					keys = append(keys, e.Key)
				}
			}
			if len(keys) != len(set.want) {
				t.Fatalf("%d tables, %d pins", len(keys), len(set.want))
			}
			s := SmallScale()
			s.Arena = sim.NewArena()
			if err := Declare(s, keys...); err != nil {
				t.Fatal(err)
			}
			for i, key := range keys {
				var rows TableSink
				if err := Stream(key, s, &rows); err != nil {
					t.Fatal(err)
				}
				var got pin
				got.liveTapes, got.liveCols = s.Arena.Live()
				tapes, rates := s.Arena.Compiles()
				got.tapes, got.rates = int(tapes), int(rates)
				if got != set.want[i] {
					t.Errorf("after %s: live tapes/columns %d/%d, compiled %d/%d; want %d/%d, %d/%d", key,
						got.liveTapes, got.liveCols, got.tapes, got.rates,
						set.want[i].liveTapes, set.want[i].liveCols, set.want[i].tapes, set.want[i].rates)
				}
			}
		})
	}
}

// TestRefinedTablesHoldTheirTapes: an adaptive table streamed alone on
// a fresh arena, nothing declared, compiles each tape once across all
// its refinement rounds — it holds its coarse points' tapes, and the
// columns drawn over them, until it ends — and leaves nothing behind.
// refined-sigma draws a column for each of its 3 coarse and 4 refined
// sigmas per run seed.
func TestRefinedTablesHoldTheirTapes(t *testing.T) {
	s := SmallScale()
	for key, rates := range map[string]int64{"refined-e": 2, "refined-sigma": 14} {
		s.Arena = sim.NewArena()
		var rows TableSink
		if err := Stream(key, s, &rows); err != nil {
			t.Fatal(err)
		}
		e, _ := ExperimentByKey(key)
		p, err := e.build(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(rows.Table().Rows); got <= len(p.coarse) {
			t.Fatalf("%s: %d rows: no refinement round ran", key, got)
		}
		if tapes, r := s.Arena.Compiles(); tapes != int64(s.Runs) || r != rates {
			t.Errorf("%s: compiled %d tapes and %d columns, want %d and %d: a refinement round recompiled a released input", key, tapes, r, s.Runs, rates)
		}
		if tapes, cols := s.Arena.Live(); tapes != 0 || cols != 0 {
			t.Errorf("%s: %d tapes and %d columns live after the table, want none", key, tapes, cols)
		}
	}
}
