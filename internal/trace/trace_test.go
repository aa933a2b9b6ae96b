package trace

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"streamcache/internal/bandwidth"
	"streamcache/internal/metrics"
	"streamcache/internal/units"
)

func sampleEntry() Entry {
	return Entry{
		Timestamp:   987654321.123,
		ElapsedMS:   2500,
		Client:      "10.0.1.44",
		Action:      ActionMiss,
		Status:      200,
		Bytes:       512000,
		Method:      "GET",
		URL:         "http://origin-3.example.com/media/obj-17",
		Hierarchy:   "DIRECT/origin-3.example.com",
		ContentType: "video/mpeg",
	}
}

func TestEntryFormatParseRoundTrip(t *testing.T) {
	e := sampleEntry()
	got, err := Parse(e.Format())
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestEntryServer(t *testing.T) {
	e := sampleEntry()
	if got := e.Server(); got != "origin-3.example.com" {
		t.Errorf("Server() = %q, want origin-3.example.com", got)
	}
	e.Hierarchy = "NOHOST"
	if got := e.Server(); got != "" {
		t.Errorf("Server() = %q, want empty", got)
	}
}

func TestEntryThroughput(t *testing.T) {
	e := sampleEntry() // 512000 bytes in 2.5 s
	if got, want := e.ThroughputBps(), 204800.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("ThroughputBps() = %v, want %v", got, want)
	}
	e.ElapsedMS = 0
	if got := e.ThroughputBps(); got != 0 {
		t.Errorf("zero-elapsed throughput = %v, want 0", got)
	}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	tests := []struct {
		name string
		line string
	}{
		{name: "empty", line: ""},
		{name: "too few fields", line: "1 2 3"},
		{name: "bad timestamp", line: "xx 100 c TCP_MISS/200 5 GET u - DIRECT/h t"},
		{name: "bad elapsed", line: "1.0 ms c TCP_MISS/200 5 GET u - DIRECT/h t"},
		{name: "bad action field", line: "1.0 100 c TCPMISS200 5 GET u - DIRECT/h t"},
		{name: "bad status", line: "1.0 100 c TCP_MISS/xx 5 GET u - DIRECT/h t"},
		{name: "bad size", line: "1.0 100 c TCP_MISS/200 x GET u - DIRECT/h t"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.line); err == nil {
				t.Errorf("Parse(%q) accepted malformed line", tt.line)
			}
		})
	}
}

func TestWriteReadAllRoundTrip(t *testing.T) {
	entries := []Entry{sampleEntry(), sampleEntry()}
	entries[1].URL = "http://origin-0.example.com/media/obj-1"
	entries[1].Action = ActionHit

	var buf bytes.Buffer
	if err := Write(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != entries[0] || got[1] != entries[1] {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestReadAllSkipsBlankLines(t *testing.T) {
	input := sampleEntry().Format() + "\n\n\n" + sampleEntry().Format() + "\n"
	got, err := ReadAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("len = %d, want 2", len(got))
	}
}

func TestReadAllReportsLineNumber(t *testing.T) {
	input := sampleEntry().Format() + "\ngarbage line here\n"
	_, err := ReadAll(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line-2 error", err)
	}
}

func validGenConfig() GenConfig {
	return GenConfig{
		Entries:       2000,
		Servers:       40,
		Variation:     bandwidth.NoVariation{},
		HitFraction:   0.2,
		SmallFraction: 0.3,
		Seed:          1,
	}
}

func TestGenerateValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*GenConfig)
	}{
		{name: "zero entries", mutate: func(c *GenConfig) { c.Entries = 0 }},
		{name: "zero servers", mutate: func(c *GenConfig) { c.Servers = 0 }},
		{name: "nil variation", mutate: func(c *GenConfig) { c.Variation = nil }},
		{name: "hit fraction 1", mutate: func(c *GenConfig) { c.HitFraction = 1 }},
		{name: "negative hit fraction", mutate: func(c *GenConfig) { c.HitFraction = -0.1 }},
		{name: "small fraction 1", mutate: func(c *GenConfig) { c.SmallFraction = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validGenConfig()
			tt.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := validGenConfig()
	entries, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != cfg.Entries {
		t.Fatalf("len = %d, want %d", len(entries), cfg.Entries)
	}
	hits := 0
	prevTS := 0.0
	for i, e := range entries {
		if e.Timestamp <= prevTS {
			t.Fatalf("entry %d: timestamp %v not increasing", i, e.Timestamp)
		}
		prevTS = e.Timestamp
		if e.Bytes <= 0 || e.ElapsedMS <= 0 {
			t.Fatalf("entry %d: non-positive size/elapsed", i)
		}
		if e.Action == ActionHit {
			hits++
		}
	}
	hitFrac := float64(hits) / float64(len(entries))
	if math.Abs(hitFrac-cfg.HitFraction) > 0.05 {
		t.Errorf("hit fraction %v, want ~%v", hitFrac, cfg.HitFraction)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(validGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(validGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs for identical seeds", i)
		}
	}
}

func TestAnalyzeFiltersHitsAndSmallObjects(t *testing.T) {
	entries := []Entry{
		{Action: ActionMiss, Bytes: 500 * units.KB, ElapsedMS: 1000, Hierarchy: "DIRECT/a"},
		{Action: ActionHit, Bytes: 500 * units.KB, ElapsedMS: 1000, Hierarchy: "DIRECT/a"},
		{Action: ActionMiss, Bytes: 100 * units.KB, ElapsedMS: 1000, Hierarchy: "DIRECT/a"},
		{Action: ActionMiss, Bytes: 300 * units.KB, ElapsedMS: 1000, Hierarchy: "DIRECT/b"},
	}
	a, err := Analyze(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != 2 {
		t.Fatalf("samples = %d, want 2 (hit and small object excluded)", len(a.Samples))
	}
	if len(a.PerServer["a"]) != 1 || len(a.PerServer["b"]) != 1 {
		t.Errorf("PerServer = %v, want one sample each for a and b", a.PerServer)
	}
}

func TestAnalyzeEmptyFails(t *testing.T) {
	if _, err := Analyze(nil, 0); err == nil {
		t.Error("empty log accepted")
	}
	onlyHits := []Entry{{Action: ActionHit, Bytes: 500 * units.KB, ElapsedMS: 100}}
	if _, err := Analyze(onlyHits, 0); err == nil {
		t.Error("hit-only log accepted")
	}
}

func TestAnalyzeRecoversConfiguredDistribution(t *testing.T) {
	// End-to-end: generate a log from the NLANR model, analyze it, and
	// check the recovered distribution matches the Section 3.1 anchors.
	cfg := validGenConfig()
	cfg.Entries = 30000
	cfg.Servers = 500
	entries, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	var w metrics.Welford
	for _, s := range a.Samples {
		w.Add(s)
	}
	below50 := 0
	for _, s := range a.Samples {
		if s < units.KBps(50) {
			below50++
		}
	}
	frac := float64(below50) / float64(len(a.Samples))
	if math.Abs(frac-0.37) > 0.03 {
		t.Errorf("recovered P[bw<50KB/s] = %v, want ~0.37", frac)
	}
	srcMean := bandwidth.NLANR().Mean()
	if math.Abs(w.Mean()-srcMean)/srcMean > 0.1 {
		t.Errorf("recovered mean %v, want ~%v", w.Mean(), srcMean)
	}
}

func TestHistogram4KBSlots(t *testing.T) {
	cfg := validGenConfig()
	entries, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2 uses 4 KB/s slots up to 450 KB/s.
	h, err := a.Histogram(units.KBps(4), units.KBps(452))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBins() != 113 {
		t.Errorf("bins = %d, want 113", h.NumBins())
	}
	if h.Count() != int64(len(a.Samples)) {
		t.Errorf("histogram count %d, want %d", h.Count(), len(a.Samples))
	}
}

func TestSampleToMeanRatiosCenterOnOne(t *testing.T) {
	cfg := validGenConfig()
	cfg.Entries = 20000
	cfg.Servers = 50
	cfg.Variation = bandwidth.NLANRVariability()
	entries, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratios := a.SampleToMeanRatios()
	if len(ratios) == 0 {
		t.Fatal("no ratios computed")
	}
	var w metrics.Welford
	for _, r := range ratios {
		if r <= 0 {
			t.Fatalf("non-positive ratio %v", r)
		}
		w.Add(r)
	}
	if math.Abs(w.Mean()-1) > 0.05 {
		t.Errorf("mean ratio %v, want ~1", w.Mean())
	}
	// Under NLANR variability the ratios must spread noticeably.
	if w.CoV() < 0.3 {
		t.Errorf("ratio CoV %v, want >= 0.3 under NLANR variability", w.CoV())
	}
}

func TestSampleToMeanRatiosSkipsSingletons(t *testing.T) {
	a := &Analysis{PerServer: map[string][]float64{"solo": {100}}}
	if got := a.SampleToMeanRatios(); got != nil {
		t.Errorf("ratios = %v, want nil for singleton servers", got)
	}
}

// TestSampleToMeanRatiosServerOrder pins the ratios in sorted-server
// order: Figure 3 folds them into order-sensitive float accumulators, so
// map iteration order must not reach the slice.
func TestSampleToMeanRatiosServerOrder(t *testing.T) {
	const servers = 64
	a := &Analysis{PerServer: map[string][]float64{}}
	var want []float64
	for i := range servers {
		// Server i's two samples sit i+1 either side of a mean of 1000.
		d := float64(i + 1)
		a.PerServer[fmt.Sprintf("origin-%02d", i)] = []float64{1000 - d, 1000 + d}
		want = append(want, (1000-d)/1000, (1000+d)/1000)
	}
	if got := a.SampleToMeanRatios(); !slices.Equal(got, want) {
		t.Errorf("ratios =\n%v\nwant them in sorted-server order:\n%v", got, want)
	}
}

func TestFormatParseProperty(t *testing.T) {
	f := func(ts uint32, elapsed uint16, size uint32, srv uint8) bool {
		e := Entry{
			Timestamp:   float64(ts) + 0.5,
			ElapsedMS:   int64(elapsed) + 1,
			Client:      "10.1.2.3",
			Action:      ActionMiss,
			Status:      200,
			Bytes:       int64(size) + 1,
			Method:      "GET",
			URL:         "http://x.example.com/a",
			Hierarchy:   "DIRECT/x.example.com",
			ContentType: "video/mpeg",
		}
		got, err := Parse(e.Format())
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func FuzzParse(f *testing.F) {
	f.Add(sampleEntry().Format())
	f.Add("987654321.123   2500 10.0.1.44 TCP_MISS/200 512000 GET http://x/y - DIRECT/x video/mpeg")
	f.Add("")
	f.Add("1 2 3 4 5 6 7 8 9 10")
	f.Add("NaN NaN c TCP_MISS/200 5 GET u - DIRECT/h t")
	f.Fuzz(func(t *testing.T, line string) {
		e, err := Parse(line)
		if err != nil {
			return // malformed input must only produce an error
		}
		// Formatting a parsed entry must be stable: one Format pass
		// canonicalizes (e.g. quantizes the timestamp to milliseconds),
		// after which Format/Parse must be an exact fixed point.
		canon, err := Parse(e.Format())
		if err != nil {
			t.Fatalf("canonical re-parse failed: %v (entry %+v)", err, e)
		}
		again, err := Parse(canon.Format())
		if err != nil {
			t.Fatalf("second re-parse failed: %v (entry %+v)", err, canon)
		}
		if again != canon {
			t.Fatalf("canonical round trip unstable: %+v vs %+v", again, canon)
		}
	})
}
