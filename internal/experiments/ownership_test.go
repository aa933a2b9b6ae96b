package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"streamcache/internal/sim"
)

// benchKeys are the tables bench/'s sweep workloads regenerate.
var benchKeys = []string{"figure5", "figure6", "figure7", "figure9", "refined-e", "refined-esigma", "hierarchy"}

// work is what one process did for one table: the evaluations and the
// arena counts a sharded sweep splits between its shards.
type work struct{ evals, passes, fallbacks, shared, reused, ranks int64 }

func (w work) add(o work) work {
	return work{w.evals + o.evals, w.passes + o.passes, w.fallbacks + o.fallbacks, w.shared + o.shared, w.reused + o.reused, w.ranks + o.ranks}
}

// figureSet streams keys as cmd/figures does — one arena, Declare of the
// whole set, then the tables in order — and returns each table's JSONL
// and work. Emitted metrics reach st, when set, for the peer shards.
func figureSet(t *testing.T, s Scale, keys []string, st *memStore) (map[string][]byte, map[string]work, error) {
	t.Helper()
	s.Arena = sim.NewArena()
	if err := Declare(s, keys...); err != nil {
		return nil, nil, err
	}
	out, did := map[string][]byte{}, map[string]work{}
	for _, key := range keys {
		s.Counters = &Counters{}
		var buf bytes.Buffer
		sink := MultiSink{NewJSONLSink(&buf)}
		if st != nil {
			sink = append(sink, &memSink{st: st})
		}
		var err error
		w := arenaWork(s.Arena, func() { err = Stream(key, s, sink) })
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", key, err)
		}
		out[key] = buf.Bytes()
		did[key] = work{s.Counters.Evaluations.Load(), w[0], w[1], w[2], w[3], w[4]}
	}
	return out, did, nil
}

// TestShardedWorkSumsToSingle: shards own whole families, dealt once
// over the whole figure set, so a sharded figure set does the single
// process's work once between its shards — every point simulated once,
// every group scored by one call, every family's tapes ranked once, and
// every answer another table's round scored reused on the shard that
// scored it — and its merged rows are the single process's bytes. Each
// shard runs as cmd/figures does, with an arena of its own and Declare
// of the bench's seven tables, its peers' metrics reaching it through an
// exchange.
func TestShardedWorkSumsToSingle(t *testing.T) {
	rows, single, err := figureSet(t, SmallScale(), benchKeys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("count%d", count), func(t *testing.T) {
			st := newMemStore()
			outs := make([]map[string][]byte, count)
			did := make([]map[string]work, count)
			errs := make([]error, count)
			var wg sync.WaitGroup
			for idx := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := SmallScale()
					s.Shard, s.Parallelism, s.Exchange = Shard{Index: idx, Count: count}, 1, st
					outs[idx], did[idx], errs[idx] = figureSet(t, s, benchKeys, st)
				}()
			}
			wg.Wait()
			for idx, err := range errs {
				if err != nil {
					t.Fatalf("shard %d/%d: %v", idx, count, err)
				}
			}
			for _, key := range benchKeys {
				var sum work
				parts := make([]io.Reader, count)
				for idx := range outs {
					sum = sum.add(did[idx][key])
					parts[idx] = bytes.NewReader(outs[idx][key])
				}
				want := single[key]
				if sum != want {
					t.Errorf("%s: the shards' evals, passes, fallbacks, shared, reused, ranks sum to %v, want %v", key, sum, want)
				}
				var got bytes.Buffer
				if err := MergeShards(parts, NewJSONLSink(&got)); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if !bytes.Equal(got.Bytes(), rows[key]) {
					t.Errorf("%s: merged shards differ from the single process's JSONL", key)
				}
			}
		})
	}
}

// indexSink records the global index of every row a stream emits.
type indexSink struct{ got []int }

func (s *indexSink) Begin(TableMeta) error { return nil }
func (s *indexSink) Row([]string) error    { return nil }
func (s *indexSink) End() error            { return nil }
func (s *indexSink) MetricRow(r MetricRow) error {
	s.got = append(s.got, r.Index)
	return nil
}

// TestOwnershipIsAFunctionOfTheRound: for every simulated table and
// every round as streamed, at 1, 2, 3 and 5 shards, each global index
// has exactly one owner; a point whose share key the figure set holds
// goes to its unit's owner in the set-wide deal, and the other points
// of a round with no shared key are owned round robin, (base+i) mod
// Count; and no two shards' dealt weights differ by more than the
// heaviest unit. The rows each shard emits are the ones the rule gives
// it whatever the process holds: an arena of the table's own, an arena
// the whole set was declared to, an arena only that table was declared
// to (a run of one -only key), or a resume journal holding a prefix of
// the shard's rows — every prefix, for a table that refines. And the
// 2-shard hierarchy files are pinned: the five 1x1 rows, flat points of
// figure5's PB share key, go whole to the shard that owns its family,
// and the other twenty rows alternate.
func TestOwnershipIsAFunctionOfTheRound(t *testing.T) {
	keys := simulatedKeys()
	base := tinyScale()
	base.RefineBudget = 3
	rounds := map[string][]round{}
	for _, key := range keys {
		rounds[key] = streamedRounds(t, key, base)
	}
	dir := t.TempDir()
	for _, count := range []int{1, 2, 3, 5} {
		var d *dealt
		if count > 1 {
			s := base
			s.Shard.Count = count
			var err error
			if d, err = s.deal(); err != nil {
				t.Fatal(err)
			}
			if spread, heaviest := slices.Max(d.load)-slices.Min(d.load), slices.Max(d.units.Weight); spread > heaviest {
				t.Errorf("%d shards: the set-wide deal gave the shards weights %v, a spread beyond its heaviest unit of %d", count, d.load, heaviest)
			}
		}
		want := map[string][][]int{} // per key, per shard: the owned indices
		for _, key := range keys {
			want[key] = make([][]int, count)
			for _, r := range rounds[key] {
				owned := make([][]bool, count)
				for idx := range owned {
					s := base
					s.Shard = Shard{Index: idx, Count: count}
					var err error
					if owned[idx], err = s.owned(r.pts, r.base); err != nil {
						t.Fatal(err)
					}
				}
				held := make([]int, len(r.pts)) // the point's unit in the deal, or -1
				for i := range held {
					held[i] = -1
					if d != nil && r.pts[i].cfg != nil {
						held[i] = d.units.Of([]sim.HierarchyConfig{*r.pts[i].cfg})[0]
					}
				}
				largest := largestGroup(r.pts)
				for i := range r.pts {
					var by []int
					for idx := range owned {
						if owned[idx][i] {
							by = append(by, idx)
						}
					}
					if len(by) != 1 {
						t.Fatalf("%s at %d shards: index %d owned by shards %v, want exactly one", key, count, r.base+i, by)
					}
					if u := held[i]; u >= 0 && by[0] != d.owner[u] {
						t.Errorf("%s at %d shards: index %d owned by shard %d, want %d, its unit's owner", key, count, r.base+i, by[0], d.owner[u])
					}
					if rr := (r.base + i) % count; held[i] < 0 && largest == 1 && by[0] != rr {
						t.Errorf("%s at %d shards: index %d of a round with no shared key owned by shard %d, want %d", key, count, r.base+i, by[0], rr)
					}
					want[key][by[0]] = append(want[key][by[0]], r.base+i)
				}
			}
		}
		for idx := 0; idx < count; idx++ {
			s := base
			s.Shard = Shard{Index: idx, Count: count}
			check := func(how, key string, got []int) {
				if fmt.Sprint(got) != fmt.Sprint(want[key][idx]) {
					t.Errorf("%s, shard %v, %s: emitted %v, want %v", key, s.Shard, how, got, want[key][idx])
				}
			}
			for _, key := range keys {
				var rows indexSink
				if err := Stream(key, s, &rows); err != nil {
					t.Fatal(err)
				}
				check("own arena", key, rows.got)
			}
			declared := s
			declared.Arena = sim.NewArena()
			if err := Declare(declared, keys...); err != nil {
				t.Fatal(err)
			}
			for _, key := range keys {
				var rows indexSink
				if err := Stream(key, declared, &rows); err != nil {
					t.Fatal(err)
				}
				check("declared arena", key, rows.got)
			}
			for _, key := range keys {
				alone := s
				alone.Arena = sim.NewArena()
				if err := Declare(alone, key); err != nil {
					t.Fatal(err)
				}
				var rows indexSink
				if err := Stream(key, alone, &rows); err != nil {
					t.Fatal(err)
				}
				check("declared alone", key, rows.got)
			}
			for _, key := range keys {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d-of-%d.jsonl", key, idx, count))
				journaledStream(t, key, s, path, false)
				full, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// A table with refinement rounds resumes from every prefix
				// of whole lines, so some resume ends inside a round of
				// points the set does not hold; any other from half.
				cuts := []int{len(full) / 2}
				if len(rounds[key]) > 1 {
					cuts = cuts[:0]
					for i, b := range full {
						if b == '\n' {
							cuts = append(cuts, i+1)
						}
					}
				}
				for _, cut := range cuts {
					if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					j, err := ResumeJournal(path, s.Fingerprint())
					if err != nil {
						t.Fatal(err)
					}
					resumed := s
					resumed.Journal = j
					var rows indexSink
					err = Stream(key, resumed, &rows)
					j.Close()
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("resumed from %d of its journal's %d bytes", cut, len(full)), key, rows.got)
				}
			}
		}
	}

	if runtime.GOARCH != "amd64" {
		t.Skipf("the hierarchy digests were recorded on amd64; GOARCH=%s may fuse float operations differently", runtime.GOARCH)
	}
	for idx, want := range []string{
		"fb1bc03af69be9daace31eef4a37a575c0f48eab7fd1356960138aa10f426021",
		"80c5ee0c878f6e803a261c1b413cad0200988b9e723365fae503715fe210d574",
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(shardJSONL(t, "hierarchy", SmallScale(), Shard{Index: idx, Count: 2}))); got != want {
			t.Errorf("hierarchy shard %d/2 JSONL sha256 %s, want %s", idx, got, want)
		}
	}
}

// largestGroup returns the most points of a round that share one key,
// or 1.
func largestGroup(pts []planPoint) int {
	var cfgs []sim.HierarchyConfig
	for _, pt := range pts {
		if pt.cfg != nil {
			cfgs = append(cfgs, *pt.cfg)
		}
	}
	size := map[int]int{}
	largest := 1
	for _, g := range sim.GroupOf(cfgs) {
		if g >= 0 {
			size[g]++
			largest = max(largest, size[g])
		}
	}
	return largest
}
