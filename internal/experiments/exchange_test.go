package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// memStore is an in-memory MetricExchange shared by concurrently
// running test shards: each shard publishes its owned metrics through a
// memSink and resolves foreign ones here, exactly the collector's
// contract without the HTTP transport.
type memStore struct {
	mu   sync.Mutex
	vals map[string]map[int]float64
	fail bool // simulate an unreachable collector
}

func newMemStore() *memStore {
	return &memStore{vals: map[string]map[int]float64{}}
}

func (s *memStore) publish(table string, index int, m float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.vals[table]
	if t == nil {
		t = map[int]float64{}
		s.vals[table] = t
	}
	t[index] = m
}

func (s *memStore) lookup(table string, index int) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.vals[table][index]
	return m, ok
}

func (s *memStore) ForeignMetric(table string, index int) (float64, bool) {
	if s.fail {
		return 0, false
	}
	// Poll with a generous deadline: the owning shard runs concurrently
	// and publishes as its round progresses.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if m, ok := s.lookup(table, index); ok {
			return m, true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(time.Millisecond)
	}
}

// memSink feeds a shard's emitted metrics into the shared store.
type memSink struct {
	st    *memStore
	table string
}

func (m *memSink) Begin(meta TableMeta) error { m.table = meta.Name; return nil }
func (m *memSink) Row([]string) error         { return nil }
func (m *memSink) End() error                 { return nil }
func (m *memSink) MetricRow(mr MetricRow) error {
	if mr.HasMetric {
		m.st.publish(m.table, mr.Index, mr.Metric)
	}
	return nil
}

// runShardsWithExchange streams key on count concurrent shards sharing
// one exchange, returning each shard's JSONL bytes and evaluation
// counts.
func runShardsWithExchange(t *testing.T, key string, base Scale, count, par int,
	st *memStore) ([][]byte, []int64) {
	t.Helper()
	outs := make([][]byte, count)
	evals := make([]int64, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for idx := 0; idx < count; idx++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			s := base
			s.Shard = Shard{Index: idx, Count: count}
			s.Parallelism = par
			s.Exchange = st
			s.Counters = &Counters{}
			var buf bytes.Buffer
			sink := MultiSink{NewJSONLSink(&buf), &memSink{st: st}}
			errs[idx] = Stream(key, s, sink)
			outs[idx] = buf.Bytes()
			evals[idx] = s.Counters.Evaluations.Load()
		}(idx)
	}
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			t.Fatalf("shard %d/%d: %v", idx, count, err)
		}
	}
	return outs, evals
}

// TestShardedRefinementExchangeByteIdentical is the shard-aware
// scheduling acceptance contract: with a healthy exchange, concurrent
// shards split the refinement evaluation — each shard simulates exactly
// its owned points, the global evaluation count equals the unsharded
// run's, and the merged union stays byte-identical to the unsharded
// stream — for the 1-D and the 2-D adaptive sweeps at ShardCount
// {1, 2, 5} x Parallelism {1, 8}.
func TestShardedRefinementExchangeByteIdentical(t *testing.T) {
	for _, key := range []string{"refined-e", "refined-esigma"} {
		t.Run(key, func(t *testing.T) {
			base := tinyScale()
			base.RefineBudget = 3
			base.Counters = &Counters{}
			var wantCSV, wantJSONL bytes.Buffer
			if err := Stream(key, base, MultiSink{NewCSVSink(&wantCSV), NewJSONLSink(&wantJSONL)}); err != nil {
				t.Fatal(err)
			}
			totalEvals := base.Counters.Evaluations.Load()
			rounds := streamedRounds(t, key, base)

			for _, count := range []int{1, 2, 5} {
				for _, par := range []int{1, 8} {
					t.Run(fmt.Sprintf("count%d_par%d", count, par), func(t *testing.T) {
						st := newMemStore()
						s := tinyScale()
						s.RefineBudget = 3
						outs, evals := runShardsWithExchange(t, key, s, count, par, st)

						var sum int64
						for idx, n := range evals {
							want := int64(len(ownedIndices(t, base, rounds, Shard{Index: idx, Count: count})))
							if n != want {
								t.Errorf("shard %d/%d simulated %d points, want exactly its %d owned",
									idx, count, n, want)
							}
							sum += n
						}
						if sum != totalEvals {
							t.Errorf("global evaluations %d, want %d (each point simulated exactly once)",
								sum, totalEvals)
						}

						parts := make([]io.Reader, count)
						for i, b := range outs {
							parts[i] = bytes.NewReader(b)
						}
						var gotCSV, gotJSONL bytes.Buffer
						if err := MergeShards(parts, MultiSink{NewCSVSink(&gotCSV), NewJSONLSink(&gotJSONL)}); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
							t.Errorf("merged CSV differs from unsharded stream:\n%s\nwant:\n%s",
								gotCSV.String(), wantCSV.String())
						}
						if !bytes.Equal(gotJSONL.Bytes(), wantJSONL.Bytes()) {
							t.Errorf("merged JSONL differs from unsharded stream")
						}
					})
				}
			}
		})
	}
}

// TestExchangeUnavailableFallsBackLocally pins the failure contract: an
// exchange that cannot produce any metric (collector down) degrades to
// the PR 4 behavior — every shard evaluates the full point set — and
// the union is still byte-identical.
func TestExchangeUnavailableFallsBackLocally(t *testing.T) {
	key := "refined-e"
	base := tinyScale()
	base.RefineBudget = 3
	base.Counters = &Counters{}
	var want bytes.Buffer
	if err := Stream(key, base, NewJSONLSink(&want)); err != nil {
		t.Fatal(err)
	}
	totalEvals := base.Counters.Evaluations.Load()

	st := newMemStore()
	st.fail = true
	s := tinyScale()
	s.RefineBudget = 3
	outs, evals := runShardsWithExchange(t, key, s, 2, 2, st)
	for idx, n := range evals {
		if n != totalEvals {
			t.Errorf("shard %d with dead exchange simulated %d points, want the full %d", idx, n, totalEvals)
		}
	}
	parts := make([]io.Reader, len(outs))
	for i, b := range outs {
		parts[i] = bytes.NewReader(b)
	}
	var got bytes.Buffer
	if err := MergeShards(parts, NewJSONLSink(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("dead-exchange merged stream differs from unsharded stream")
	}
}

// TestRefined2DDeterministicAcrossParallelism pins the 2-D driver's
// half of the Parallelism contract directly.
func TestRefined2DDeterministicAcrossParallelism(t *testing.T) {
	s := tinyScale()
	s.RefineBudget = 4
	var want bytes.Buffer
	s.Parallelism = 1
	if err := Stream("refined-esigma", s, NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want.Bytes(), []byte(",refined")) {
		t.Fatal("budget 4 produced no refined rows")
	}
	for _, par := range []int{2, 8} {
		var got bytes.Buffer
		s.Parallelism = par
		if err := Stream("refined-esigma", s, NewCSVSink(&got)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("parallelism %d changed the 2-D refined stream", par)
		}
	}
}

// TestRefined2DCellSpreadScoring pins the quadtree scoring unit: the
// spread of a cell is the metric range over samples on its closed
// bounds, and center() bisects exactly.
func TestRefined2DCellSpreadScoring(t *testing.T) {
	at := func(x, y, metric float64) sample { return sample{at: []float64{x, y}, metric: metric} }
	samples := []sample{
		at(0, 0, 1), at(1, 0, 5), at(0, 1, 2), at(1, 1, 3), // corners
		at(2, 2, 100), // outside
	}
	c := cell2d{0, 1, 0, 1}
	if got := c.spread(samples); got != 4 {
		t.Errorf("spread = %v, want 4", got)
	}
	cx, cy := c.center()
	if cx != 0.5 || cy != 0.5 {
		t.Errorf("center = (%v,%v), want (0.5,0.5)", cx, cy)
	}
	// A sample on the boundary counts for both adjacent cells.
	left, right := cell2d{0, 0.5, 0, 1}, cell2d{0.5, 1, 0, 1}
	boundary := []sample{at(0.5, 0.5, 10), at(0, 0, 4), at(1, 0, 7)}
	if got := left.spread(boundary); got != 6 {
		t.Errorf("left spread = %v, want 6", got)
	}
	if got := right.spread(boundary); got != 3 {
		t.Errorf("right spread = %v, want 3", got)
	}
}

// TestMergeShardsAcceptsExchangedJournals: a journal is a legal merge
// input, including the metric-only checkpoints a live exchange leaves in
// it — the two journals of a 2-shard refined-e run merge to the
// single-process CSV. (The merge used to refuse them with `unknown
// record type "metric"` while every fallback message pointed at it.)
func TestMergeShardsAcceptsExchangedJournals(t *testing.T) {
	const key, count = "refined-e", 2
	base := tinyScale()
	base.RefineBudget = 3
	var want bytes.Buffer
	if err := Stream(key, base, NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}

	st := newMemStore()
	dir := t.TempDir()
	errs := make([]error, count)
	var wg sync.WaitGroup
	for idx := 0; idx < count; idx++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			s := base
			s.Shard = Shard{Index: idx, Count: count}
			s.Exchange = st
			j, err := CreateJournal(filepath.Join(dir, fmt.Sprintf("j%d.jsonl", idx)), s.Fingerprint())
			if err != nil {
				errs[idx] = err
				return
			}
			defer j.Close()
			s.Journal = j
			errs[idx] = Stream(key, s, &memSink{st: st})
		}(idx)
	}
	wg.Wait()
	parts := make([]io.Reader, count)
	exchanged := 0
	for idx, err := range errs {
		if err != nil {
			t.Fatalf("shard %d/%d: %v", idx, count, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("j%d.jsonl", idx)))
		if err != nil {
			t.Fatal(err)
		}
		exchanged += bytes.Count(b, []byte(`"type":"metric"`))
		parts[idx] = bytes.NewReader(b)
	}
	if exchanged == 0 {
		t.Fatal("no journal holds a metric-only record; the exchange was not live")
	}
	var got bytes.Buffer
	if err := MergeShards(parts, NewCSVSink(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("merged journals differ from the single-process CSV:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// tracedShard is one shard's view of a shared memStore that logs, in
// the order they happen, the rows the shard emits (as a sink: the moment
// a point's metric becomes visible to its peers) and the foreign
// metrics it asks for (as an exchange). The store only answers for
// points a peer has already emitted, like the collector's long-poll.
type tracedShard struct {
	memSink
	mu     sync.Mutex
	events []tracedEvent
}

type tracedEvent struct {
	fetch bool // false: an owned row was emitted
	index int
}

func (s *tracedShard) record(fetch bool, index int) {
	s.mu.Lock()
	s.events = append(s.events, tracedEvent{fetch, index})
	s.mu.Unlock()
}

func (s *tracedShard) MetricRow(mr MetricRow) error {
	s.record(false, mr.Index)
	return s.memSink.MetricRow(mr)
}

func (s *tracedShard) ForeignMetric(table string, index int) (float64, bool) {
	s.record(true, index)
	return s.st.ForeignMetric(table, index)
}

// TestEvalRoundOwnedFirst pins the round schedule: a shard evaluates and
// emits every owned point of a round before it asks the exchange for
// the first foreign one, so two single-worker shards simulate a round
// side by side and trade metrics once at its end instead of alternating
// point by point. Each shard still simulates exactly its owned points
// (no fallback), the union is the unsharded stream, and an exchange
// that never answers changes nothing but who simulates what.
func TestEvalRoundOwnedFirst(t *testing.T) {
	const count = 2
	base := tinyScale()
	base.RefineBudget = 3
	// Three coarse points leave at least refineRoundPoints refinable
	// intervals, so every round but the budget's tail is a full one.
	base.CacheFractions = []float64{0.02, 0.05, 0.1}
	coarse := map[string]int{
		"refined-e":      len(base.ESweep),
		"refined-esigma": len(base.ESweep) * len(base.sigmas()),
		"refined-cache":  len(base.CacheFractions),
	}
	for key, coarseN := range coarse {
		var want bytes.Buffer
		if err := Stream(key, base, NewJSONLSink(&want)); err != nil {
			t.Fatal(err)
		}
		total := bytes.Count(want.Bytes(), []byte("\n")) - 1 // minus the table line
		rounds := streamedRounds(t, key, base)
		// roundStart maps a global index to the first index of its round:
		// the coarse pass, then refineRoundPoints at a time.
		roundStart := func(g int) int {
			if g < coarseN {
				return 0
			}
			return g - (g-coarseN)%refineRoundPoints
		}
		for _, dead := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dead=%v", key, dead), func(t *testing.T) {
				st := newMemStore()
				st.fail = dead
				shards := make([]*tracedShard, count)
				outs := make([]bytes.Buffer, count)
				counters := make([]Counters, count)
				errs := make([]error, count)
				var wg sync.WaitGroup
				for idx := range shards {
					shards[idx] = &tracedShard{memSink: memSink{st: st}}
					wg.Add(1)
					go func() {
						defer wg.Done()
						s := base
						s.Shard = Shard{Index: idx, Count: count}
						s.Parallelism = 1
						s.Exchange = shards[idx]
						s.Counters = &counters[idx]
						errs[idx] = Stream(key, s, MultiSink{NewJSONLSink(&outs[idx]), shards[idx]})
					}()
				}
				wg.Wait()
				parts := make([]io.Reader, count)
				for idx, sh := range shards {
					if errs[idx] != nil {
						t.Fatalf("shard %d: %v", idx, errs[idx])
					}
					parts[idx] = &outs[idx]
					owned := ownedIndices(t, base, rounds, Shard{Index: idx, Count: count})
					emitted := map[int]bool{}
					fetches := 0
					for _, ev := range sh.events {
						if !ev.fetch {
							emitted[ev.index] = true
							continue
						}
						fetches++
						for _, g := range owned {
							if roundStart(g) == roundStart(ev.index) && !emitted[g] {
								t.Fatalf("shard %d asked for foreign point %d before emitting its own point %d of the same round",
									idx, ev.index, g)
							}
						}
					}
					if fetches != total-len(owned) {
						t.Errorf("shard %d asked the exchange for %d points, want its %d foreign ones", idx, fetches, total-len(owned))
					}
					wantEvals := len(owned)
					if dead {
						wantEvals = total // every foreign point falls back to a local simulation
					}
					if got := counters[idx].Evaluations.Load(); got != int64(wantEvals) {
						t.Errorf("shard %d simulated %d points, want %d", idx, got, wantEvals)
					}
				}
				var got bytes.Buffer
				if err := MergeShards(parts, NewJSONLSink(&got)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("union of the shards' rows differs from the unsharded stream:\n%s\nwant:\n%s", got.String(), want.String())
				}
			})
		}
	}
}

// TestQuadtreeSplitKeepsUnsplitCells: a quadtree split replaces the
// picked cell by its four quadrants and keeps every other cell. (A pick
// that rewrote the cell list in place once overwrote the cells behind
// the first split with copies of its quadrants.)
func TestQuadtreeSplitKeepsUnsplitCells(t *testing.T) {
	q := newQuadtree([]float64{0, 1, 2, 3}, []float64{0, 1, 2}) // 3 x 2 cells
	// All the spread sits in the first cell, (0..1) x (0..1).
	samples := []sample{{at: []float64{0, 0}, metric: 10}}
	for _, x := range []float64{0, 1, 2, 3} {
		for _, y := range []float64{0, 1, 2} {
			if x != 0 || y != 0 {
				samples = append(samples, sample{at: []float64{x, y}})
			}
		}
	}
	picks, err := q.pick(samples, 1)
	if err != nil || len(picks) != 1 || picks[0][0] != 0.5 || picks[0][1] != 0.5 {
		t.Fatalf("pick = %v, %v; want the center of the first cell", picks, err)
	}
	distinct := map[cell2d]bool{}
	for _, c := range q.cells {
		distinct[c] = true
	}
	if len(q.cells) != 9 || len(distinct) != 9 {
		t.Errorf("after one split: %d cells, %d distinct; want the 5 untouched cells plus 4 quadrants", len(q.cells), len(distinct))
	}
	if !distinct[cell2d{2, 3, 1, 2}] {
		t.Error("the last coarse cell was lost by the split")
	}
}
