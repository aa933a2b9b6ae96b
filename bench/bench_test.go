package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// manifest mirrors the parts of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []manifestMetric        `json:"end_to_end"`
	PerLayer  []manifestMetric        `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func sameMetrics(t *testing.T, kind string, want []manifestMetric, got []metricDef, bounded bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: BENCHMARK.json names %d metrics, the program %d", kind, len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Name != g.name || w.Unit != g.unit {
			t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, w.Name, w.Unit, g.name, g.unit)
		}
		if bounded && (w.Bound != g.bound || (w.Better == "higher") != g.higher) {
			t.Errorf("%s %s: BENCHMARK.json has %s/%v, the program higher=%v/%v", kind, w.Name, w.Better, w.Bound, g.higher, g.bound)
		}
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the tables the
// program prints from equal: names, order, units, directions, bounds.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
	sameMetrics(t, "end_to_end", m.EndToEnd, endToEnd, true)
	sameMetrics(t, "per_layer", m.PerLayer, perLayer, false)
}

// TestQuick runs every workload and every traced pass on tiny inputs
// and requires each to emit every metric with a finite value and no
// failed operation, so harness rot shows in the unit tests.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/proxyd", "./cmd/figures", "./cmd/collectd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries under test: %v\n%s", err, out)
	}
	e := &env{bin: bin, work: t.TempDir(), seed: 7, seconds: 1, quick: true}
	defer e.cleanup()
	for _, w := range workloads {
		passes := []struct {
			kind string
			defs []metricDef
			run  func() (*outcome, error)
		}{
			{"end to end", endToEnd, func() (*outcome, error) { return w.run(e) }},
			{"traced", perLayer, func() (*outcome, error) { return runTraced(e, w.name, "") }},
		}
		for _, p := range passes {
			o, err := p.run()
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, p.kind, err)
			}
			r, err := o.result(p.defs)
			if err != nil {
				t.Errorf("%s %s: %v", w.name, p.kind, err)
			}
			if !r.Correct || r.Attempted < 1 {
				t.Errorf("%s %s: attempted %d, failed %d: %v", w.name, p.kind, r.Attempted, r.Failed, o.problems)
			}
			if len(r.Metrics) != len(p.defs) {
				t.Errorf("%s %s: %d metrics, want %d", w.name, p.kind, len(r.Metrics), len(p.defs))
			}
			if p.kind == "end to end" {
				for name, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
					}
				}
			}
		}
	}
}
