package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"streamcache/internal/sim"
)

// tableOf returns the aggregate form of the experiment registered
// under key — the tests reach every table through the registry
// cmd/figures uses.
func tableOf(key string) func(Scale) (*Table, error) {
	return func(s Scale) (*Table, error) {
		e, ok := ExperimentByKey(key)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", key)
		}
		return tableFrom(e, s)
	}
}

// tableFrom streams e at s into an in-memory Table.
func tableFrom(e Experiment, s Scale) (*Table, error) {
	var ts TableSink
	if err := e.Stream(s, &ts); err != nil {
		return nil, err
	}
	return ts.Table(), nil
}

// tinyScale keeps experiment tests fast while exercising every code path.
func tinyScale() Scale {
	return Scale{
		Objects:        100,
		Requests:       2000,
		Runs:           1,
		Seed:           1,
		CacheFractions: []float64{0.02, 0.1},
		AlphaSweep:     []float64{0.5, 1.0},
		ESweep:         []float64{0, 0.5, 1},
		TraceEntries:   3000,
		TraceServers:   50,
	}
}

func checkTable(t *testing.T, tbl *Table, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name == "" {
		t.Error("table has no name")
	}
	if len(tbl.Header) == 0 {
		t.Error("table has no header")
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("table has no rows")
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tbl.Header))
		}
	}
}

func TestScaleValidation(t *testing.T) {
	bad := tinyScale()
	bad.Objects = 0
	if _, err := tableOf("table1")(bad); err == nil {
		t.Error("zero objects accepted")
	}
	noFrac := tinyScale()
	noFrac.CacheFractions = nil
	if _, err := tableOf("figure5")(noFrac); err == nil {
		t.Error("empty cache fractions accepted")
	}
}

func TestTable1(t *testing.T) {
	tbl, err := tableOf("table1")(tinyScale())
	checkTable(t, tbl, err)
	got := map[string]string{}
	for _, row := range tbl.Rows {
		got[row[0]] = row[1]
	}
	if got["objects"] != "100" {
		t.Errorf("objects = %s, want 100", got["objects"])
	}
	if got["object_bitrate_KBps"] != "48.0" {
		t.Errorf("bitrate = %s, want 48.0", got["object_bitrate_KBps"])
	}
}

func TestFigure2CDFEndsAtOne(t *testing.T) {
	tbl, err := tableOf("figure2")(tinyScale())
	checkTable(t, tbl, err)
	last := tbl.Rows[len(tbl.Rows)-1]
	cdf, err := strconv.ParseFloat(last[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if cdf != 1 {
		t.Errorf("final CDF = %v, want 1", cdf)
	}
}

func TestFigure3RatiosCenterOnOne(t *testing.T) {
	tbl, err := tableOf("figure3")(tinyScale())
	checkTable(t, tbl, err)
	// The CDF at ratio 1.0 should be near the median.
	for _, row := range tbl.Rows {
		if row[0] == "1.000" {
			cdf, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			if cdf < 0.3 || cdf > 0.8 {
				t.Errorf("CDF at ratio 1.0 = %v, want near the median", cdf)
			}
			return
		}
	}
	t.Error("no ratio=1.0 bin found")
}

func TestFigure4HasThreePaths(t *testing.T) {
	tbl, err := tableOf("figure4")(tinyScale())
	checkTable(t, tbl, err)
	paths := map[string]bool{}
	for _, row := range tbl.Rows {
		paths[row[0]] = true
	}
	for _, want := range []string{"INRIA,France", "Taiwan", "HongKong"} {
		if !paths[want] {
			t.Errorf("path %q missing from Figure 4 rows", want)
		}
	}
}

func TestSimulationFigures(t *testing.T) {
	s := tinyScale()
	builders := map[string]func(Scale) (*Table, error){
		"Figure5":  tableOf("figure5"),
		"Figure7":  tableOf("figure7"),
		"Figure8":  tableOf("figure8"),
		"Figure10": tableOf("figure10"),
		"Figure11": tableOf("figure11"),
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			tbl, err := build(s)
			checkTable(t, tbl, err)
			// 2 cache fractions x 3 policies.
			if len(tbl.Rows) != 6 {
				t.Errorf("rows = %d, want 6", len(tbl.Rows))
			}
		})
	}
}

func TestFigure6RowCount(t *testing.T) {
	tbl, err := tableOf("figure6")(tinyScale())
	checkTable(t, tbl, err)
	// 2 alphas x 2 fractions x 2 policies.
	if len(tbl.Rows) != 8 {
		t.Errorf("rows = %d, want 8", len(tbl.Rows))
	}
}

func TestFigure9And12RowCount(t *testing.T) {
	for name, build := range map[string]func(Scale) (*Table, error){
		"Figure9": tableOf("figure9"), "Figure12": tableOf("figure12"),
	} {
		t.Run(name, func(t *testing.T) {
			tbl, err := build(tinyScale())
			checkTable(t, tbl, err)
			// 3 e values x 2 fractions.
			if len(tbl.Rows) != 6 {
				t.Errorf("rows = %d, want 6", len(tbl.Rows))
			}
		})
	}
}

func TestAblations(t *testing.T) {
	tbl, err := tableOf("ablation-eviction")(tinyScale())
	checkTable(t, tbl, err)
	if len(tbl.Rows) != 4 { // 2 fractions x 2 modes
		t.Errorf("eviction ablation rows = %d, want 4", len(tbl.Rows))
	}
	tbl, err = tableOf("ablation-estimators")(tinyScale())
	checkTable(t, tbl, err)
	if len(tbl.Rows) != 6 { // 2 fractions x 3 estimators
		t.Errorf("estimator ablation rows = %d, want 6", len(tbl.Rows))
	}
}

func TestAllProducesEveryTable(t *testing.T) {
	exps := Experiments()
	if len(exps) != 24 {
		t.Fatalf("%d experiments, want 24 (paper suite + ablations + extensions + scenarios + refined incl. 2-D + hierarchy)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		tbl, err := tableFrom(e, tinyScale())
		if err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		if seen[tbl.Name] {
			t.Errorf("duplicate table name %q", tbl.Name)
		}
		seen[tbl.Name] = true
	}
}

func TestDeterministicTables(t *testing.T) {
	a, err := tableOf("figure5")(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tableOf("figure5")(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("row %d cell %d differs across identical runs: %q vs %q",
					i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestExtensionStreamMerging(t *testing.T) {
	tbl, err := tableOf("ext-merging")(tinyScale())
	checkTable(t, tbl, err)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 techniques", len(tbl.Rows))
	}
	// Parse savings per technique; merging must save versus unicast and
	// cached patching must save at least as much as plain patching.
	savings := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		savings[row[0]] = v
	}
	if savings["unicast"] != 0 {
		t.Errorf("unicast savings = %v, want 0", savings["unicast"])
	}
	if savings["patching"] <= 0 {
		t.Errorf("patching savings = %v, want > 0", savings["patching"])
	}
	if savings["patching+PB_cache"] < savings["patching"] {
		t.Errorf("cached patching (%v) must not save less than plain patching (%v)",
			savings["patching+PB_cache"], savings["patching"])
	}
}

func TestExtensionPartialViewing(t *testing.T) {
	tbl, err := tableOf("ext-partial-viewing")(tinyScale())
	checkTable(t, tbl, err)
	if len(tbl.Rows) != 6 { // 3 probabilities x 2 policies
		t.Errorf("rows = %d, want 6", len(tbl.Rows))
	}
}

func TestExtensionActiveProbing(t *testing.T) {
	tbl, err := tableOf("ext-active-probing")(tinyScale())
	checkTable(t, tbl, err)
	if len(tbl.Rows) != 4 {
		t.Errorf("rows = %d, want 4 estimators", len(tbl.Rows))
	}
}

func TestExtensionBaselines(t *testing.T) {
	tbl, err := tableOf("ext-baselines")(tinyScale())
	checkTable(t, tbl, err)
	if len(tbl.Rows) != 7 {
		t.Errorf("rows = %d, want 7 policies", len(tbl.Rows))
	}
}

// TestFingerprintGolden pins the fingerprint strings byte for byte. They
// are schema: every journal and collector session on disk is stamped
// with one, and a resume or a shard's hello compares it for equality,
// so any drift in the format — not only a field added or dropped —
// orphans them all. A sharded run's name the ownership rule, so the
// journals and sessions of shards that owned rows by another rule
// (index mod count, groups of flat oracle points only, groups dealt out
// round robin, groups by points with the hierarchy's 1x1 rows apart,
// groups dealt by points within each round) are refused; an unsharded
// run's are the format's from before.
func TestFingerprintGolden(t *testing.T) {
	s := SmallScale()
	const run = "objects=500 requests=10000 runs=2 seed=1 fractions=[0.005 0.02 0.05 0.1 0.169] alpha=[0.5 0.73 1 1.2] " +
		"e=[0 0.2 0.4 0.6 0.8 1] sigma=[0 0.25 0.55] trace=20000/200 refine=4 shard="
	for _, tc := range []struct {
		shard     Shard
		fp, runFP string
	}{
		{Shard{}, run + "0/1", run + "0/1"},
		{Shard{Index: 0, Count: 1}, run + "0/1", run + "0/1"},
		{Shard{Index: 1, Count: 2}, run + "1/2 owners=families/set", run + "0/1 owners=families/set"},
	} {
		s.Shard = tc.shard
		if got := s.Fingerprint(); got != tc.fp {
			t.Errorf("Fingerprint\n got  %s\n want %s", got, tc.fp)
		}
		if got := s.RunFingerprint(); got != tc.runFP {
			t.Errorf("RunFingerprint\n got  %s\n want %s", got, tc.runFP)
		}
	}
}

// TestHierarchyTopologiesMatchSimCopy pins the hierarchy table's cluster
// shapes to the copy internal/sim's BenchmarkHierarchy and
// TestRunOnceSteadyStateAllocs time and pin (sim's hierarchyTopologies):
// when this fails, change that list with the spec.
func TestHierarchyTopologiesMatchSimCopy(t *testing.T) {
	type shape struct {
		levels, edges int
		peering       sim.PeeringPolicy
		parentFrac    float64
	}
	want := []shape{
		{1, 1, sim.PeeringNone, 0},
		{1, 4, sim.PeeringNone, 0},
		{1, 4, sim.PeeringOwner, 0},
		{2, 4, sim.PeeringNone, 0.5},
		{2, 4, sim.PeeringOwner, 0.5},
	}
	topologies := hierarchy.axes[len(hierarchy.axes)-1](SmallScale())
	var got []shape
	for _, l := range topologies.levels {
		var pt point
		l.set(&pt)
		got = append(got, shape{pt.Levels, pt.Edges, pt.Peering, pt.ParentFraction})
	}
	if !slices.Equal(got, want) {
		t.Errorf("hierarchy topologies %v, sim's copy %v", got, want)
	}
}
