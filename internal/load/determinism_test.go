package load

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"streamcache/internal/experiments"
	"streamcache/internal/proxy"
	"streamcache/internal/workload"
)

// scheduleBytes builds the schedule for (spec, seed) and renders it the
// way `loadgen -schedule-out` does, returning the emitted bytes.
func scheduleBytes(t *testing.T, spec *Spec, catalog *proxy.Catalog, trace []workload.Request, seed int64) []byte {
	t.Helper()
	items, err := BuildSchedule(spec, catalog, trace, seed, 60, 0, 1)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	var buf bytes.Buffer
	if err := ScheduleTable("schedule", items).Stream(experiments.NewJSONLSink(&buf)); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return buf.Bytes()
}

// operationsSpec is the workload-spec example of OPERATIONS.md, read
// from the document so the text operators copy is the text tested.
func operationsSpec(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)```json\n(\\{\\s*\"classes\".*?)```").FindSubmatch(doc)
	if m == nil {
		t.Fatal("OPERATIONS.md has no ```json workload-spec example")
	}
	return string(m[1])
}

func TestScheduleByteIdenticalAcrossRuns(t *testing.T) {
	// The determinism regression: identical (seed, spec, trace) inputs
	// must produce byte-identical schedule artifacts run over run. This
	// is the contract `scripts/load-check.sh` re-checks end to end
	// through the loadgen binary.
	catalog, err := proxy.BuildCatalog(20, 64, 512, 1)
	if err != nil {
		t.Fatalf("BuildCatalog: %v", err)
	}
	w, err := workload.Generate(workload.Config{NumObjects: 20, NumRequests: 300, Seed: 7})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// The digests pin the schedule bytes across commits, not only across
	// runs: they were taken before the spec structs were folded into
	// workload.Viewing and load.OnOff, so a spec file on disk still means
	// the same schedule.
	for _, tc := range []struct{ name, text, sha256 string }{
		{"three classes", `{
	  "classes": [
	    {"name": "vod", "arrival": {"process": "poisson", "rate": 8},
	     "viewing": {"dist": "uniform"}, "slo": {"class": "standard"}},
	    {"name": "burst", "arrival": {"process": "onoff", "sources": 10, "peak_rate": 3},
	     "slo": {"class": "interactive"}},
	    {"name": "replay", "arrival": {"process": "trace"}, "slo": {"class": "relaxed"}}
	  ]
	}`, "51df3c16f8ad3aeb3a7a3dfacfa6ef4f350687e6998c323964256794971a1163"},
		{"OPERATIONS.md example", operationsSpec(t), "366ad48c504e4bd187173d059fee072a7e53d479f010136eb6d229cd3b833aa1"},
	} {
		spec, err := ParseSpec(strings.NewReader(tc.text))
		if err != nil {
			t.Fatalf("%s: ParseSpec: %v", tc.name, err)
		}
		first := scheduleBytes(t, spec, catalog, w.Requests, 42)
		second := scheduleBytes(t, spec, catalog, w.Requests, 42)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: same seed produced different schedule bytes", tc.name)
		}
		if len(first) == 0 || bytes.Count(first, []byte("\n")) < 100 {
			t.Fatalf("%s: suspiciously small schedule: %d bytes", tc.name, len(first))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(first)); got != tc.sha256 {
			t.Errorf("%s: schedule digest %s, want %s", tc.name, got, tc.sha256)
		}
		other := scheduleBytes(t, spec, catalog, w.Requests, 43)
		if bytes.Equal(first, other) {
			t.Fatalf("%s: different seeds produced identical schedule bytes", tc.name)
		}
	}
}

func TestBuildScheduleShape(t *testing.T) {
	catalog, err := proxy.BuildCatalog(10, 64, 512, 1)
	if err != nil {
		t.Fatalf("BuildCatalog: %v", err)
	}
	spec := SingleClass(20, 1000)
	items, err := BuildSchedule(spec, catalog, nil, 5, 30, 0, 1)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	if len(items) < 300 {
		t.Fatalf("%d items for 20 rps x 30 s, want ~600", len(items))
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("item %d has Index %d", i, it.Index)
		}
		if i > 0 && it.Time < items[i-1].Time {
			t.Fatalf("schedule out of order at %d", i)
		}
		if it.Fraction <= 0 || it.Fraction > 1 {
			t.Fatalf("item %d fraction %v outside (0, 1]", i, it.Fraction)
		}
		if _, ok := catalog.Get(it.ObjectID); !ok {
			t.Fatalf("item %d references unknown object %d", i, it.ObjectID)
		}
	}

	// maxRequests truncates; rateScale multiplies the offered volume.
	capped, err := BuildSchedule(spec, catalog, nil, 5, 30, 50, 1)
	if err != nil {
		t.Fatalf("BuildSchedule capped: %v", err)
	}
	if len(capped) != 50 {
		t.Fatalf("capped schedule has %d items, want 50", len(capped))
	}
	doubled, err := BuildSchedule(spec, catalog, nil, 5, 30, 0, 2)
	if err != nil {
		t.Fatalf("BuildSchedule x2: %v", err)
	}
	if ratio := float64(len(doubled)) / float64(len(items)); ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("rate scale 2 produced %dx the arrivals, want ~2x", int(ratio*100)/100)
	}

	// A trace class with no trace supplied is a configuration error.
	traceSpec, err := ParseSpec(strings.NewReader(`{"classes": [
	  {"name": "r", "arrival": {"process": "trace"}, "slo": {"class": "standard"}}]}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if _, err := BuildSchedule(traceSpec, catalog, nil, 5, 30, 0, 1); err == nil {
		t.Fatal("BuildSchedule accepted a trace class without a trace")
	}

	// Replay is exact: at rate scale 1 the arrivals are the trace's own
	// timestamps bit for bit, dropping only nonpositive times and those
	// beyond the horizon.
	var stamped []workload.Request
	for _, ts := range []float64{-1, 0, 0.5, 1.25, 2.75, 9.875, 12} {
		stamped = append(stamped, workload.Request{Time: ts, ObjectID: catalog.IDs()[0], Fraction: 1})
	}
	replayed, err := BuildSchedule(traceSpec, catalog, stamped, 5, 10, 0, 1)
	if err != nil {
		t.Fatalf("BuildSchedule replay: %v", err)
	}
	want := []float64{0.5, 1.25, 2.75, 9.875}
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d arrivals, want %d", len(replayed), len(want))
	}
	for i := range want {
		if replayed[i].Time != want[i] {
			t.Errorf("replayed[%d].Time = %v, want exactly %v", i, replayed[i].Time, want[i])
		}
	}

	// A ramp level compresses the trace's timestamps by its multiplier
	// and so consumes that many times the requests: a trace sized for the
	// level (2 x rate x horizon x scale, loadgen's rule) still reaches the
	// end of the horizon at rate scale 4.
	const rate, horizon, scale = 20.0, 30.0, 4.0
	w, err := workload.Generate(workload.Config{
		NumObjects: 10, NumRequests: int(2 * rate * horizon * scale), RequestRate: rate, Seed: 7,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	fast, err := BuildSchedule(traceSpec, catalog, w.Requests, 5, horizon, 0, scale)
	if err != nil {
		t.Fatalf("BuildSchedule x4 replay: %v", err)
	}
	if last := fast[len(fast)-1].Time; last < 0.9*horizon {
		t.Fatalf("x4 replay stops at %.1fs of a %gs horizon: the trace ran out", last, horizon)
	}
}
