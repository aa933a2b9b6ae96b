package experiments

import (
	"bytes"
	"errors"
	"strconv"
	"testing"
	"time"
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
// a later task blocks until the sink has observed the first row, which
// is impossible under the old collect-then-return contract (rows only
// reached consumers after every task finished).
func TestSinkReceivesRowsBeforeSweepCompletes(t *testing.T) {
	sink := newRecordingSink()
	sw := &taskSweep{
		meta: TableMeta{Name: "streaming probe", Header: []string{"i"}},
		tasks: []rowTask{
			func() ([]string, error) { return []string{"0"}, nil },
			func() ([]string, error) {
				select {
				case <-sink.firstRow:
					return []string{"1"}, nil
				case <-time.After(10 * time.Second):
					return nil, errors.New("sink never saw row 0 while the sweep was still running")
				}
			},
		},
	}
	s := tinyScale()
	s.Parallelism = 2
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

func TestStreamTasksOrderAndErrors(t *testing.T) {
	// Rows arrive in task order however many workers run them.
	n := 100
	tasks := make([]rowTask, n)
	for i := range tasks {
		tasks[i] = func() ([]string, error) {
			return []string{strconv.Itoa(i)}, nil
		}
	}
	var rows [][]string
	if err := streamTasks(8, tasks, func(row []string) error {
		rows = append(rows, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("rows = %d, want %d", len(rows), n)
	}
	for i, row := range rows {
		if row[0] != strconv.Itoa(i) {
			t.Fatalf("row %d = %q, want %q", i, row[0], strconv.Itoa(i))
		}
	}

	// The first failing task (in task order) surfaces as the error, and
	// only rows before it were emitted. Task 37 fails only once rows
	// 0..36 have been delivered: a failure landing earlier makes
	// streamOrdered skip tasks that have not started, and the delivered
	// prefix would end short of 37.
	boom := errors.New("boom")
	delivered := make(chan struct{})
	tasks[37] = func() ([]string, error) {
		<-delivered
		return nil, boom
	}
	rows = nil
	err := streamTasks(4, tasks, func(row []string) error {
		rows = append(rows, row)
		if len(rows) == 37 {
			close(delivered)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if len(rows) != 37 {
		t.Fatalf("emitted %d rows before the failure at 37, want 37", len(rows))
	}
	for i, row := range rows {
		if row[0] != strconv.Itoa(i) {
			t.Fatalf("row %d = %q, want %q", i, row[0], strconv.Itoa(i))
		}
	}

	// A sink error aborts the sweep.
	tasks[37] = func() ([]string, error) { return []string{"37"}, nil }
	sinkErr := errors.New("disk full")
	if err := streamTasks(4, tasks, func([]string) error { return sinkErr }); !errors.Is(err, sinkErr) {
		t.Fatalf("error = %v, want sink error", err)
	}

	// Degenerate pools still work.
	if err := streamTasks(0, nil, func([]string) error {
		t.Error("emit called with no tasks")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
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
