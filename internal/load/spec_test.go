package load

import (
	"errors"
	"strings"
	"testing"
	"time"

	"streamcache/internal/workload"
)

func TestParseSpecRoundTrip(t *testing.T) {
	const text = `{
	  "classes": [
	    {
	      "name": "vod",
	      "arrival": {"process": "poisson", "rate": 12.5},
	      "viewing": {"dist": "lognormal", "mu": 4.0, "sigma": 0.6},
	      "slo": {"class": "standard"}
	    },
	    {
	      "name": "flash-crowd",
	      "arrival": {"process": "onoff", "sources": 30, "peak_rate": 4},
	      "slo": {"startup_ms": 750},
	      "zipf_alpha": 1.1
	    },
	    {
	      "name": "replay",
	      "arrival": {"process": "trace"},
	      "slo": {"class": "relaxed"}
	    }
	  ]
	}`
	spec, err := ParseSpec(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(spec.Classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(spec.Classes))
	}
	vod := spec.Classes[0]
	if vod.Arrival.Rate != 12.5 || vod.Viewing.Kind != workload.ViewLognormal || vod.Viewing.Mu != 4.0 {
		t.Errorf("vod class mangled: %+v", vod)
	}
	if vod.ZipfAlpha != 0.73 {
		t.Errorf("vod zipf_alpha = %v, want default 0.73", vod.ZipfAlpha)
	}
	if got := vod.SLO.Threshold(); got != time.Second {
		t.Errorf("standard SLO threshold = %v, want 1s", got)
	}
	fc := spec.Classes[1]
	if fc.Arrival.OnShape != 1.5 || fc.Arrival.OffShape != 1.5 || fc.Arrival.MeanOn != 1 || fc.Arrival.MeanOff != 4 {
		t.Errorf("onoff defaults not applied: %+v", fc.Arrival)
	}
	if got := fc.SLO.Threshold(); got != 750*time.Millisecond {
		t.Errorf("explicit SLO threshold = %v, want 750ms", got)
	}
	if fc.ZipfAlpha != 1.1 {
		t.Errorf("explicit zipf_alpha = %v, want 1.1", fc.ZipfAlpha)
	}
	if !spec.UsesTrace() {
		t.Error("UsesTrace = false, want true (replay class present)")
	}
}

func TestParseSpecErrors(t *testing.T) {
	// Malformed specs must come back as errors naming the offending
	// field, never as panics or silent defaults.
	cases := []struct {
		name string
		text string
		want string // substring the error must carry
	}{
		{
			name: "unknown top-level field",
			text: `{"classes": [], "clases": []}`,
			want: "clases",
		},
		{
			name: "no classes",
			text: `{"classes": []}`,
			want: "no classes",
		},
		{
			name: "missing class name",
			text: `{"classes": [{"arrival": {"process": "poisson", "rate": 1}, "slo": {"class": "standard"}}]}`,
			want: "name: missing",
		},
		{
			name: "duplicate class name",
			text: `{"classes": [
			  {"name": "a", "arrival": {"process": "poisson", "rate": 1}, "slo": {"class": "standard"}},
			  {"name": "a", "arrival": {"process": "poisson", "rate": 1}, "slo": {"class": "standard"}}
			]}`,
			want: `class "a": name: duplicate`,
		},
		{
			name: "unknown arrival process",
			text: `{"classes": [{"name": "x", "arrival": {"process": "bursty", "rate": 1}, "slo": {"class": "standard"}}]}`,
			want: `arrival.process = "bursty"`,
		},
		{
			name: "missing arrival process",
			text: `{"classes": [{"name": "x", "arrival": {"rate": 1}, "slo": {"class": "standard"}}]}`,
			want: "arrival.process: missing",
		},
		{
			name: "negative poisson rate",
			text: `{"classes": [{"name": "x", "arrival": {"process": "poisson", "rate": -5}, "slo": {"class": "standard"}}]}`,
			want: "arrival.rate = -5",
		},
		{
			name: "onoff without sources",
			text: `{"classes": [{"name": "x", "arrival": {"process": "onoff", "peak_rate": 2}, "slo": {"class": "standard"}}]}`,
			want: "arrival.sources = 0",
		},
		{
			name: "onoff infinite-mean on period",
			text: `{"classes": [{"name": "x", "arrival": {"process": "onoff", "sources": 5, "peak_rate": 2, "on_shape": 0.9}, "slo": {"class": "standard"}}]}`,
			want: "arrival.on_shape = 0.9",
		},
		{
			name: "missing SLO",
			text: `{"classes": [{"name": "x", "arrival": {"process": "poisson", "rate": 1}}]}`,
			want: "slo: missing",
		},
		{
			name: "unknown SLO class",
			text: `{"classes": [{"name": "x", "arrival": {"process": "poisson", "rate": 1}, "slo": {"class": "instant"}}]}`,
			want: `slo.class = "instant"`,
		},
		{
			name: "negative SLO budget",
			text: `{"classes": [{"name": "x", "arrival": {"process": "poisson", "rate": 1}, "slo": {"startup_ms": -10}}]}`,
			want: "slo.startup_ms = -10",
		},
		{
			name: "unknown viewing dist",
			text: `{"classes": [{"name": "x", "arrival": {"process": "poisson", "rate": 1}, "viewing": {"dist": "beta"}, "slo": {"class": "standard"}}]}`,
			want: `Kind="beta"`,
		},
		{
			name: "negative zipf alpha",
			text: `{"classes": [{"name": "x", "arrival": {"process": "poisson", "rate": 1}, "slo": {"class": "standard"}, "zipf_alpha": -1}]}`,
			want: "zipf_alpha = -1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec(strings.NewReader(tc.text))
			if err == nil {
				t.Fatalf("ParseSpec accepted malformed spec: %+v", spec)
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Errorf("error %v does not wrap ErrBadSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the offending field (want substring %q)", err, tc.want)
			}
		})
	}
}

func TestSLOThresholdPresets(t *testing.T) {
	for name, wantMS := range map[string]time.Duration{
		"interactive": 250 * time.Millisecond,
		"standard":    time.Second,
		"relaxed":     4 * time.Second,
	} {
		if got := (SLOSpec{Class: name}).Threshold(); got != wantMS {
			t.Errorf("preset %q threshold = %v, want %v", name, got, wantMS)
		}
	}
	// An explicit budget wins over the preset.
	if got := (SLOSpec{Class: "standard", StartupMS: 300}).Threshold(); got != 300*time.Millisecond {
		t.Errorf("explicit budget = %v, want 300ms", got)
	}
}

func TestSingleClass(t *testing.T) {
	spec := SingleClass(25, 500)
	if err := spec.Validate(); err != nil {
		t.Fatalf("SingleClass spec invalid: %v", err)
	}
	c := spec.Classes[0]
	if c.Arrival.Process != "poisson" || c.Arrival.Rate != 25 {
		t.Errorf("arrival = %+v, want poisson @ 25", c.Arrival)
	}
	if got := c.SLO.Threshold(); got != 500*time.Millisecond {
		t.Errorf("threshold = %v, want 500ms", got)
	}
}
