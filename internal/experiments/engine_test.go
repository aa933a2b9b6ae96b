package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

// tableEqual reports whether two tables have identical rows.
func tableEqual(a, b *Table) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

// TestTablesIdenticalAcrossParallelism is the tentpole determinism
// contract at the experiment level: the same scale regenerates
// bit-identical tables whether the sweep runs on 1, 2 or 8 workers.
func TestTablesIdenticalAcrossParallelism(t *testing.T) {
	builders := map[string]func(Scale) (*Table, error){
		"Figure5":        tableOf("figure5"),
		"Figure6":        tableOf("figure6"),
		"Figure9":        tableOf("figure9"),
		"Baselines":      tableOf("ext-baselines"),
		"ScenarioMatrix": tableOf("scenarios"),
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			var ref *Table
			for _, par := range []int{1, 2, 8} {
				s := tinyScale()
				s.Parallelism = par
				tbl, err := build(s)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = tbl
					continue
				}
				if !tableEqual(ref, tbl) {
					t.Fatalf("parallelism %d produced a different table than parallelism 1", par)
				}
			}
		})
	}
}

// TestStreamedBytesIdenticalAcrossParallelism pins the streaming
// determinism contract end to end: the exact CSV and JSONL byte
// streams of a fixed sweep and an adaptively refined sweep are
// identical at Parallelism 1, 2 and 8.
func TestStreamedBytesIdenticalAcrossParallelism(t *testing.T) {
	for _, key := range []string{"figure5", "scenarios", "refined-e", "refined-cache"} {
		t.Run(key, func(t *testing.T) {
			var refCSV, refJSONL []byte
			for _, par := range []int{1, 2, 8} {
				s := tinyScale()
				s.Parallelism = par
				s.RefineBudget = 3
				var csv, jsonl bytes.Buffer
				err := Stream(key, s, MultiSink{NewCSVSink(&csv), NewJSONLSink(&jsonl)})
				if err != nil {
					t.Fatal(err)
				}
				if refCSV == nil {
					refCSV, refJSONL = csv.Bytes(), jsonl.Bytes()
					continue
				}
				if !bytes.Equal(refCSV, csv.Bytes()) {
					t.Errorf("parallelism %d streamed different CSV bytes than parallelism 1", par)
				}
				if !bytes.Equal(refJSONL, jsonl.Bytes()) {
					t.Errorf("parallelism %d streamed different JSONL bytes than parallelism 1", par)
				}
			}
		})
	}
}

// recordingSink notes the arrival of every row and signals the first.
type recordingSink struct {
	meta     TableMeta
	rows     [][]string
	firstRow chan struct{}
	ended    bool
}

func newRecordingSink() *recordingSink {
	return &recordingSink{firstRow: make(chan struct{})}
}

func (r *recordingSink) Begin(meta TableMeta) error {
	r.meta = meta
	return nil
}

func (r *recordingSink) Row(row []string) error {
	if len(r.rows) == 0 {
		close(r.firstRow)
	}
	r.rows = append(r.rows, row)
	return nil
}

func (r *recordingSink) End() error {
	r.ended = true
	return nil
}

// TestSinkReceivesRowsBeforeSweepCompletes proves the pipeline streams:
// a later row's formatting blocks until the sink has observed the first
// row, which is impossible under a collect-then-return contract (rows
// only reaching consumers after the whole table).
func TestSinkReceivesRowsBeforeSweepCompletes(t *testing.T) {
	sink := newRecordingSink()
	sw := gridPlan(TableMeta{Name: "streaming probe", Header: []string{"i"}},
		func() []string { return []string{"0"} },
		func() []string {
			select {
			case <-sink.firstRow:
				return []string{"1"}
			case <-time.After(10 * time.Second):
				return []string{"sink never saw row 0 while the sweep was still running"}
			}
		},
	)
	s := tinyScale()
	s.Parallelism, s.Arena = 2, sim.NewArena()
	if err := stream(s, sw, sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.rows) != 2 || sink.rows[0][0] != "0" || sink.rows[1][0] != "1" {
		t.Fatalf("rows = %v, want [[0] [1]]", sink.rows)
	}
	if !sink.ended {
		t.Error("End never called")
	}
}

// gridPlan is a synthetic fixed-grid plan: one point per task, in order,
// whose row is the task's. Each point simulates the probe of a seed of
// its own, so no two points share a key.
func gridPlan(meta TableMeta, tasks ...func() []string) *plan {
	p := &plan{meta: meta}
	for i, task := range tasks {
		p.coarse = append(p.coarse, planPoint{cfg: probe(int64(i)), eval: func(sim.Metrics) ([]string, float64) { return task(), 0 }})
	}
	return p
}

// probe is the small configuration a synthetic plan's point simulates;
// the point's row comes from its own eval.
func probe(seed int64) *sim.HierarchyConfig {
	return &sim.HierarchyConfig{Config: sim.Config{
		Workload: workload.Config{NumObjects: 20, NumRequests: 200}, Policy: core.NewPB(), Seed: seed,
	}}
}

func TestScenarioMatrixShape(t *testing.T) {
	s := tinyScale()
	s.SigmaSweep = []float64{0, 0.55}
	tbl, err := tableOf("scenarios")(s)
	checkTable(t, tbl, err)
	// 2 sigmas x 4 estimators x 3 policies.
	if len(tbl.Rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(tbl.Rows))
	}
	// Every metric cell parses and sits in a sane range.
	for _, row := range tbl.Rows {
		tr, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if tr < 0 || tr > 1 {
			t.Errorf("traffic reduction %v outside [0,1] in row %v", tr, row)
		}
	}
}

func TestScenarioMatrixDefaultsSigmaSweep(t *testing.T) {
	s := tinyScale() // tinyScale sets no SigmaSweep
	tbl, err := tableOf("scenarios")(s)
	checkTable(t, tbl, err)
	// 3 default sigmas x 4 estimators x 3 policies.
	if len(tbl.Rows) != 36 {
		t.Fatalf("rows = %d, want 36", len(tbl.Rows))
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Key == "" {
			t.Error("experiment with empty key")
		}
		if seen[e.Key] {
			t.Errorf("duplicate experiment key %q", e.Key)
		}
		seen[e.Key] = true
	}
	if _, ok := ExperimentByKey("figure5"); !ok {
		t.Error("figure5 missing from registry")
	}
	if _, ok := ExperimentByKey("nope"); ok {
		t.Error("unknown key resolved")
	}
	if err := Stream("nope", tinyScale(), &TableSink{}); err == nil {
		t.Error("Stream accepted an unknown key")
	}
}

// TestFixedGridsStreamBeforeExchanges pins the registry's order rule:
// no simulated fixed grid follows an adaptive table. A refinement round
// is where sharded runs trade metrics, so a shard that reaches the first
// one ahead of its peer waits there; a fixed grid after it would be rows
// the shard could have scored in that wait.
func TestFixedGridsStreamBeforeExchanges(t *testing.T) {
	adaptive := ""
	for _, e := range Experiments() {
		switch {
		case e.spec == nil:
		case e.spec.refineOn != "":
			if adaptive == "" {
				adaptive = e.Key
			}
		case adaptive != "":
			t.Errorf("fixed grid %s streams after the adaptive table %s: a shard waiting on a metric exchange leaves it unscored", e.Key, adaptive)
		}
	}
	if adaptive == "" {
		t.Error("no adaptive table in the registry: the rule pins nothing")
	}
}

// countingExchange fails the refinement-metric lookup and counts calls.
type countingExchange struct{ calls atomic.Int64 }

func (c *countingExchange) ForeignMetric(string, int) (float64, bool) {
	c.calls.Add(1)
	return 0, false
}

// TestFixedGridResolvesNoForeignMetrics: a plan without a refiner needs
// nobody else's metrics, so a shard of it never asks the exchange and
// simulates exactly the points it owns — for a synthetic grid and for a
// registered one.
func TestFixedGridResolvesNoForeignMetrics(t *testing.T) {
	var tasks []func() []string
	for i := 0; i < 6; i++ {
		tasks = append(tasks, func() []string { return []string{strconv.Itoa(i)} })
	}
	ex := &countingExchange{}
	s := tinyScale()
	s.Arena = sim.NewArena()
	s.Shard = Shard{Index: 1, Count: 2}
	s.Exchange = ex
	s.Counters = &Counters{}
	var ts TableSink
	if err := stream(s, gridPlan(TableMeta{Name: "grid probe", Header: []string{"i"}}, tasks...), &ts); err != nil {
		t.Fatal(err)
	}
	if got := ts.Table().Rows; len(got) != 3 || got[0][0] != "1" || got[1][0] != "3" || got[2][0] != "5" {
		t.Errorf("shard 1/2 emitted %v, want rows 1, 3, 5", got)
	}
	if err := Stream("figure5", s, &ts); err != nil {
		t.Fatal(err)
	}
	if n := ex.calls.Load(); n != 0 {
		t.Errorf("fixed grids made %d ForeignMetric calls, want 0", n)
	}
	// 3 of the probe's 6 points, and the figure5 points shard 1/2 owns.
	unsharded := s
	unsharded.Shard, unsharded.Counters = Shard{}, nil
	want := 3 + len(ownedIndices(t, unsharded, streamedRounds(t, "figure5", unsharded), s.Shard))
	if n := s.Counters.Evaluations.Load(); n != int64(want) {
		t.Errorf("shard 1/2 simulated %d points, want the %d it owns", n, want)
	}
}

// TestSpecRowsFollowDeclaredAxisOrder: a spec's header is its axes'
// columns then its metric names, and its rows are the cross product of
// the axes in declared order, outermost first — here Figure 5's two
// axes swapped, so each cell must equal the Figure 5 cell of the same
// (policy, cache) pair.
func TestSpecRowsFollowDeclaredAxisOrder(t *testing.T) {
	s := tinyScale()
	swapped := spec{
		name:    "axis order probe",
		axes:    []axisFn{delayPolicies, cacheAxis},
		metrics: []string{"hit_ratio", "traffic_reduction"},
	}
	var ts TableSink
	if err := (Experiment{spec: &swapped}).Stream(s, &ts); err != nil {
		t.Fatal(err)
	}
	got := ts.Table()
	if want := "policy,cache_pct,hit_ratio,traffic_reduction"; strings.Join(got.Header, ",") != want {
		t.Fatalf("header = %v, want %s", got.Header, want)
	}
	fig5, err := tableOf("figure5")(s)
	if err != nil {
		t.Fatal(err)
	}
	cell := map[string][]string{} // "policy,cache_pct" -> hit_ratio, traffic_reduction
	for _, row := range fig5.Rows {
		cell[row[1]+","+row[0]] = []string{row[6], row[2]}
	}
	var order []string
	for _, row := range got.Rows {
		key := row[0] + "," + row[1]
		order = append(order, key)
		if want := cell[key]; len(row) != 4 || row[2] != want[0] || row[3] != want[1] {
			t.Errorf("row %v, want metrics %v (Figure 5's %s cell)", row, want, key)
		}
	}
	if want := "IF,2.000 IF,10.000 PB,2.000 PB,10.000 IB,2.000 IB,10.000"; strings.Join(order, " ") != want {
		t.Errorf("row order = %v, want %s", order, want)
	}
}

// TestSpecCompileRejectsMalformedSpecs: a metric name outside the
// column table, and a multi-level axis beside an adaptive one (a
// refined point would not know which level it belongs to).
func TestSpecCompileRejectsMalformedSpecs(t *testing.T) {
	s := tinyScale()
	s.Arena = sim.NewArena() // as Experiment.Stream hands it to compile
	if _, err := (spec{name: "typo", axes: []axisFn{cacheAxis, pbPolicy}, metrics: []string{"avg_delay"}}).compile(s); err == nil {
		t.Error("unknown metric column accepted")
	}
	bad := spec{name: "ambiguous", axes: []axisFn{refined(cacheAxis), delayPolicies}, metrics: delayMetrics, refineOn: "avg_delay_s"}
	if _, err := bad.compile(s); err == nil {
		t.Error("multi-level axis beside an adaptive axis accepted")
	}
}
