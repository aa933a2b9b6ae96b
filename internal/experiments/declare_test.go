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
				s.Counters = &Counters{}
				var csv bytes.Buffer
				if err := Stream(key, s, NewCSVSink(&csv)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(csv.Bytes(), want[key]) {
					t.Errorf("%s after Declare:\n%s\nwant:\n%s", key, csv.String(), want[key])
				}
				reused[key] = s.Counters.ReusedMembers.Load()
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
		s.Resume = j
	} else {
		j, err = CreateJournal(path, s.Fingerprint())
	}
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s.Arena = sim.NewArena()
	if err := Declare(s, keys...); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		sink := MultiSink{NewJournalSink(j)}
		if jsonl != nil {
			jsonl[key] = &bytes.Buffer{}
			sink = append(sink, NewJSONLSink(jsonl[key]))
		}
		if err := Stream(key, s, sink); err != nil {
			t.Fatal(err)
		}
	}
}
