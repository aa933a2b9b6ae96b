package experiments

import (
	"math"
	"strconv"
	"sync/atomic"
	"testing"

	"streamcache/internal/sim"
)

// kneeSweep builds a synthetic adaptive sweep whose metric is a step at
// x=knee: flat before, flat after, so all the gradient concentrates in
// the interval straddling the knee. Every point simulates one probe, which
// the arena scores once, and formats its own row: evaluated counts the
// points formatted.
func kneeSweep(axis []float64, knee float64) (*plan, *atomic.Int64) {
	var evaluated atomic.Int64
	at := func(coords []float64) (planPoint, error) {
		x := coords[0]
		return planPoint{coords: coords, cfg: probe(0), eval: func(sim.Metrics) ([]string, float64) {
			evaluated.Add(1)
			metric := 0.0
			if x >= knee {
				metric = 10
			}
			return []string{f3(x), f3(metric)}, metric
		}}, nil
	}
	sw := &plan{
		meta: TableMeta{
			Name:   "synthetic knee",
			Header: []string{"x", "metric", "source"},
		},
		refine: bisect,
		at:     at,
	}
	for _, x := range axis {
		pt, _ := at([]float64{x})
		sw.coarse = append(sw.coarse, pt)
	}
	return sw, &evaluated
}

func runAdaptive(t *testing.T, sw *plan, budget, parallelism int) [][]string {
	t.Helper()
	var rows [][]string
	s := tinyScale()
	s.Parallelism, s.Arena = parallelism, sim.NewArena()
	s.RefineBudget = budget
	if err := stream(s, sw, sinkFunc(func(row []string) error {
		rows = append(rows, row)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	return rows
}

// sinkFunc adapts a row function into a RowSink.
type sinkFunc func(row []string) error

func (f sinkFunc) Begin(TableMeta) error  { return nil }
func (f sinkFunc) Row(row []string) error { return f(row) }
func (f sinkFunc) End() error             { return nil }

// TestRefinementBisectsSteepestInterval drives the driver with a step
// response: every refined point must land inside the interval
// containing the step, repeatedly halving it.
func TestRefinementBisectsSteepestInterval(t *testing.T) {
	axis := []float64{0, 0.25, 0.5, 0.75, 1}
	const knee = 0.6 // inside (0.5, 0.75)
	sw, _ := kneeSweep(axis, knee)
	rows := runAdaptive(t, sw, 4, 4)

	if len(rows) != len(axis)+4 {
		t.Fatalf("rows = %d, want %d coarse + 4 refined", len(rows), len(axis))
	}
	for i, row := range rows {
		wantSource := "coarse"
		if i >= len(axis) {
			wantSource = "refined"
		}
		if row[len(row)-1] != wantSource {
			t.Errorf("row %d source = %q, want %q", i, row[len(row)-1], wantSource)
		}
	}
	// The first refined point is the midpoint of the steepest coarse
	// interval (0.5, 0.75); later points keep closing in on the knee.
	// (Ties on the flat segments hand the second pick per round to the
	// leftmost flat interval, which stays flat, so the steep interval is
	// re-bisected every round.)
	first, err := strconv.ParseFloat(rows[len(axis)][0], 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first-0.625) > 1e-9 {
		t.Errorf("first refined point = %v, want 0.625 (midpoint of the steep interval)", first)
	}
	for _, row := range rows[len(axis):] {
		x, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		if x <= 0 || x >= 1 {
			t.Errorf("refined point %v outside the axis range", x)
		}
	}
}

// TestRefinementPointSelectionIdenticalAcrossParallelism pins the
// acceptance criterion directly on the driver: the refined point
// sequence (values and order) is identical at Parallelism 1, 2 and 8.
func TestRefinementPointSelectionIdenticalAcrossParallelism(t *testing.T) {
	axis := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	var ref [][]string
	for _, par := range []int{1, 2, 8} {
		sw, _ := kneeSweep(axis, 0.45)
		rows := runAdaptive(t, sw, 5, par)
		if ref == nil {
			ref = rows
			continue
		}
		if len(rows) != len(ref) {
			t.Fatalf("parallelism %d emitted %d rows, parallelism 1 emitted %d", par, len(rows), len(ref))
		}
		for i := range rows {
			for j := range rows[i] {
				if rows[i][j] != ref[i][j] {
					t.Fatalf("parallelism %d row %d cell %d = %q, parallelism 1 had %q",
						par, i, j, rows[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestRefinementRespectsMinGap: with a huge budget the driver stops
// once every interval is narrower than the resolution floor instead of
// burning points forever.
func TestRefinementRespectsMinGap(t *testing.T) {
	sw, evaluated := kneeSweep([]float64{0, 1}, 0.3)
	rows := runAdaptive(t, sw, 10000, 4)
	// span/minGapDivisor floors the interval width at ~1/128 of the
	// axis, so the driver can never need more than a few hundred points.
	if len(rows) >= 2+10000 {
		t.Fatalf("refinement consumed the whole %d budget despite the gap floor", 10000)
	}
	if got := int(evaluated.Load()); got != len(rows) {
		t.Errorf("evaluated %d points but emitted %d rows", got, len(rows))
	}
}

// TestRefinementZeroBudgetIsCoarseOnly.
func TestRefinementZeroBudgetIsCoarseOnly(t *testing.T) {
	sw, _ := kneeSweep([]float64{0, 0.5, 1}, 0.4)
	rows := runAdaptive(t, sw, 0, 2)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 coarse only", len(rows))
	}
	for _, row := range rows {
		if row[len(row)-1] != "coarse" {
			t.Errorf("unexpected refined row %v with zero budget", row)
		}
	}
}

// TestRefinedExperimentsProduceTables smoke-tests the three public
// refined sweeps end to end at a small budget.
func TestRefinedExperimentsProduceTables(t *testing.T) {
	builders := map[string]func(Scale) (*Table, error){
		"RefinedESweep":     tableOf("refined-e"),
		"RefinedSigmaSweep": tableOf("refined-sigma"),
		"RefinedCacheSweep": tableOf("refined-cache"),
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			s := tinyScale()
			s.RefineBudget = 2
			tbl, err := build(s)
			checkTable(t, tbl, err)
			var refined int
			for _, row := range tbl.Rows {
				if row[len(row)-1] == "refined" {
					refined++
				}
			}
			if refined != 2 {
				t.Errorf("refined rows = %d, want 2 (the budget)", refined)
			}
		})
	}
}

func TestScaleRejectsNegativeRefineBudget(t *testing.T) {
	s := tinyScale()
	s.RefineBudget = -1
	if _, err := tableOf("refined-e")(s); err == nil {
		t.Error("negative RefineBudget accepted")
	}
}
