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
type work struct{ evals, passes, fallbacks, shared, reused int64 }

func (w work) add(o work) work {
	return work{w.evals + o.evals, w.passes + o.passes, w.fallbacks + o.fallbacks, w.shared + o.shared, w.reused + o.reused}
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
		did[key] = work{s.Counters.Evaluations.Load(), w[0], w[1], w[2], w[3]}
	}
	return out, did, nil
}

// TestShardedWorkSumsToSingle: shards own whole groups, so a sharded
// figure set does the single process's work once between its shards —
// every point simulated once, every group scored by one call — and its
// merged rows are the single process's bytes. Each shard runs as
// cmd/figures does, with an arena of its own and Declare of the bench's
// seven tables, its peers' metrics reaching it through an exchange. A
// table reuses another's answers only where both rounds hand the shared
// key to the same shard, which misses once at 2 shards and once at 3.
func TestShardedWorkSumsToSingle(t *testing.T) {
	rows, single, err := figureSet(t, SmallScale(), benchKeys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{2, 3} {
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
				if count == 3 && key == "figure6" {
					// Owners are decided per round: figure6's α = 0.73 PB
					// rows are the fourth group of its round, figure5's PB
					// rows the second of its own, so at 3 shards they land
					// on shards 0 and 1 and the group is scored twice —
					// one pass more, and its five rows are not reused.
					want.passes, want.reused = want.passes+1, want.reused-5
				}
				if count == 2 && key == "hierarchy" {
					// The same miss: the hierarchy's 1x1 rows, the first
					// group of its round, are figure5's PB members, whose
					// group is the second of figure5's round, so at 2
					// shards they land on shards 0 and 1.
					want.passes, want.reused = want.passes+1, want.reused-5
				}
				if sum != want {
					t.Errorf("%s: the shards' evals, passes, fallbacks, shared, reused sum to %v, want %v", key, sum, want)
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
// has exactly one owner, a round with no shared key is owned round
// robin, (base+i) mod Count, and no two shards' shares of a round differ
// by more than its largest group. The rows each shard emits are the ones the
// rule gives it whatever the process holds: an arena of the table's
// own, an arena the whole set was declared to, or a resume journal
// holding the first half of the shard's rows. And the 2-shard hierarchy
// files are pinned: the five 1x1 rows, flat points of one share key, go
// to shard 0 as one group, and the other twenty rows alternate.
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
		want := map[string][][]int{} // per key, per shard: the owned indices
		for _, key := range keys {
			want[key] = make([][]int, count)
			for _, r := range rounds[key] {
				owned := make([][]bool, count)
				for idx := range owned {
					owned[idx] = Shard{Index: idx, Count: count}.owned(r.pts, r.base)
				}
				largest := largestGroup(r.pts)
				load := make([]int, count)
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
					if rr := (r.base + i) % count; largest == 1 && by[0] != rr {
						t.Errorf("%s at %d shards: index %d of a round with no shared key owned by shard %d, want %d", key, count, r.base+i, by[0], rr)
					}
					want[key][by[0]] = append(want[key][by[0]], r.base+i)
					load[by[0]]++
				}
				if spread := slices.Max(load) - slices.Min(load); spread > largest {
					t.Errorf("%s at %d shards: round at %d owned %v points per shard, a spread beyond its largest group of %d", key, count, r.base, load, largest)
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
				path := filepath.Join(dir, fmt.Sprintf("%s-%d-of-%d.jsonl", key, idx, count))
				journaledStream(t, key, s, path, false)
				full, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				j, err := ResumeJournal(path, s.Fingerprint())
				if err != nil {
					t.Fatal(err)
				}
				resumed := s
				resumed.Resume = j
				var rows indexSink
				err = Stream(key, resumed, MultiSink{NewJournalSink(j), &rows})
				j.Close()
				if err != nil {
					t.Fatal(err)
				}
				check("resumed from half its journal", key, rows.got)
			}
		}
	}

	if runtime.GOARCH != "amd64" {
		t.Skipf("the hierarchy digests were recorded on amd64; GOARCH=%s may fuse float operations differently", runtime.GOARCH)
	}
	for idx, want := range []string{
		"a86a77379fc3328427b2fd49cfc9dde72152ce706ec0a5a2e6653d2e45ade769",
		"71a36ce64d15ecaa305a48a11ab1f0242b365355d586bf69fe1afd71c9b700cb",
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
