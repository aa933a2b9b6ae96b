package streamcache

import (
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"streamcache/internal/collect"
	"streamcache/internal/core"
	"streamcache/internal/experiments"
	"streamcache/internal/units"
)

// Benchmarks regenerate every table and figure of the paper. Each bench
// runs the full experiment per iteration and prints the resulting rows
// once, so `go test -bench=.` reproduces the evaluation end to end.
//
// Scale defaults to experiments.SmallScale (all shapes preserved, ~10x
// cheaper); set STREAMCACHE_BENCH_SCALE=paper for the full Table 1
// configuration (5000 objects, 100k requests, 10 runs - several minutes
// per figure).

func benchScale() experiments.Scale {
	if os.Getenv("STREAMCACHE_BENCH_SCALE") == "paper" {
		return experiments.PaperScale()
	}
	return experiments.SmallScale()
}

var printGate sync.Mutex
var printed = map[string]bool{}

// printTable emits a regenerated table once per process.
func printTable(t *experiments.Table) {
	printGate.Lock()
	defer printGate.Unlock()
	if printed[t.Name] {
		return
	}
	printed[t.Name] = true
	fmt.Printf("\n## %s\n", t.Name)
	if t.Note != "" {
		fmt.Printf("#  %s\n", t.Note)
	}
	for i, h := range t.Header {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Print(h)
	}
	fmt.Println()
	// Large tables (raw histograms, time series) are summarized to head
	// and tail rows in bench output; cmd/figures emits them in full.
	rows := t.Rows
	const maxRows = 24
	if len(rows) > maxRows {
		for _, row := range rows[:maxRows/2] {
			printRow(row)
		}
		fmt.Printf("... (%d rows elided; run cmd/figures for the full table)\n", len(rows)-maxRows)
		rows = rows[len(rows)-maxRows/2:]
	}
	for _, row := range rows {
		printRow(row)
	}
}

func printRow(row []string) {
	for i, cell := range row {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Print(cell)
	}
	fmt.Println()
}

// BenchmarkExperiment regenerates every table of the suite, one
// sub-benchmark per cmd/figures key (table1, figure2 … figure12, the
// ablations, extensions, scenarios, refined sweeps and hierarchy):
// `-bench 'BenchmarkExperiment/figure5$'` runs one.
func BenchmarkExperiment(b *testing.B) {
	scale := benchScale()
	for _, e := range experiments.Experiments() {
		b.Run(e.Key, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				table, err := e.Table(scale)
				if err != nil {
					b.Fatal(err)
				}
				printTable(table)
			}
		})
	}
}

// sweepScale is the fixed-size grid used by the parallelism benchmarks:
// small enough for a bench smoke, large enough (15 sweep points x 2
// runs) that the worker pool has real work to balance.
func sweepScale(parallelism int) experiments.Scale {
	s := experiments.SmallScale()
	s.Parallelism = parallelism
	return s
}

// benchSweepParallelism regenerates the Figure 5 policy sweep at the
// given worker count. Comparing the ns/op of the Sequential and
// Parallel8 variants on a multi-core runner measures the engine's
// speedup; their tables are bit-identical by the determinism contract.
func benchSweepParallelism(b *testing.B, parallelism int) {
	b.Helper()
	scale := sweepScale(parallelism)
	figure5, ok := experiments.ExperimentByKey("figure5")
	if !ok {
		b.Fatal("no figure5 experiment")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figure5.Table(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSequential is the single-worker baseline.
func BenchmarkSweepSequential(b *testing.B) { benchSweepParallelism(b, 1) }

// BenchmarkSweepParallel2 uses two sweep workers.
func BenchmarkSweepParallel2(b *testing.B) { benchSweepParallelism(b, 2) }

// BenchmarkSweepParallel8 uses eight sweep workers; on a runner with 8+
// cores it should finish the sweep at least 2x faster than
// BenchmarkSweepSequential.
func BenchmarkSweepParallel8(b *testing.B) { benchSweepParallelism(b, 8) }

// BenchmarkSimRunParallelism measures the run-level worker pool inside
// a single sim.Run (8 replications) at 1, 2 and 8 workers.
func BenchmarkSimRunParallelism(b *testing.B) {
	for _, par := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := RunSimulation(SimConfig{
					Workload:    WorkloadConfig{NumObjects: 500, NumRequests: 10000},
					CacheBytes:  4 << 30,
					Policy:      NewPB(),
					Runs:        8,
					Seed:        1,
					Parallelism: par,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedRefinedSweep measures the shard-aware refinement
// scheduler end to end: N shards run the adaptive refined-e sweep
// concurrently against an in-process collector, exchanging per-point
// metrics instead of each re-simulating the whole frontier. The
// evals/shard metric is the acceptance number — it must fall as
// total/N when the shard count grows (shards=1 is the baseline), while
// the collected tables stay byte-identical to the single-process run.
func BenchmarkShardedRefinedSweep(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				total += runShardedRefinedSweep(b, shards)
			}
			mean := float64(total) / float64(b.N)
			b.ReportMetric(mean/float64(shards), "evals/shard")
			b.ReportMetric(mean, "evals/total")
		})
	}
}

// runShardedRefinedSweep runs one refined-e sweep split across count
// shards coordinated by a fresh collector, returning the total
// simulation-evaluation count across shards.
func runShardedRefinedSweep(b *testing.B, count int) (total int64) {
	b.Helper()
	srv := collect.NewServer(count)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	base := benchScale()
	base.RefineBudget = 4
	counters := make([]experiments.Counters, count)
	var wg sync.WaitGroup
	errs := make([]error, count)
	for idx := 0; idx < count; idx++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			s := base
			s.Shard = experiments.Shard{Index: idx, Count: count}
			s.Counters = &counters[idx]
			client := collect.NewClient(hs.URL, s.Shard, s.RunFingerprint())
			if client.Down() {
				errs[idx] = fmt.Errorf("shard %d: collector down", idx)
				return
			}
			s.Exchange = client
			sink := client.Sink("refined_e_sweep")
			if err := experiments.Stream("refined-e", s, sink); err != nil {
				errs[idx] = err
				return
			}
			errs[idx] = client.Close()
		}(idx)
	}
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			b.Fatalf("shard %d/%d: %v", idx, count, err)
		}
	}
	select {
	case <-srv.Done():
	case <-time.After(30 * time.Second):
		b.Fatal("collector never saw all shards done")
	}
	for i := range counters {
		total += counters[i].Evaluations.Load()
	}
	return total
}

// BenchmarkCacheOpThroughput measures raw cache Access operations per
// second (the O(log n) heap cost of Section 2.4, over the dense
// slice-backed tables; see also BenchmarkAccess in internal/core for
// the isolated hit/evict split).
func BenchmarkCacheOpThroughput(b *testing.B) {
	const nObjects = 4096
	cache, err := core.New(64*units.MB, core.NewPB())
	if err != nil {
		b.Fatal(err)
	}
	objs := make([]core.Object, nObjects)
	for i := range objs {
		size := int64((i%64 + 1)) * 64 * units.KB
		objs[i] = core.Object{ID: i, Size: size, Duration: 60, Rate: float64(size) / 60, Value: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := objs[i%nObjects]
		cache.Access(obj, obj.Rate/2, float64(i))
	}
}

// BenchmarkSmoothing measures optimal smoothing over a 10k-frame VBR
// trace.
func BenchmarkSmoothing(b *testing.B) {
	frames := make([]float64, 10000)
	for i := range frames {
		frames[i] = float64(500 + (i*7919)%2000)
		if i%30 == 0 {
			frames[i] += 8000
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Smooth(frames, 65536); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures Table 1 workload synthesis.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateWorkload(WorkloadConfig{
			NumObjects:  1000,
			NumRequests: 20000,
			Seed:        int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
