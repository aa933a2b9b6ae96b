package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"streamcache/internal/load"
	"streamcache/internal/proxy"
)

// A ramp level compresses the replayed trace's timestamps by its
// multiplier, so the trace must be sized from the largest level: every
// level of -arrival trace -ramp 1,2,4,8 has to run to the end of
// -duration, not for 1/scale of it.
func TestOpenTraceCoversLargestRampLevel(t *testing.T) {
	o := options{
		objects: 10, meanKB: 64, rateKBps: 512, catalogSeed: 1, zipfAlpha: 0.73, traceSeed: 7,
		arrival: "trace", rate: 20, duration: 30, sloMS: 1000,
	}
	catalog, err := proxy.BuildCatalog(o.objects, o.meanKB, o.rateKBps, o.catalogSeed)
	if err != nil {
		t.Fatalf("BuildCatalog: %v", err)
	}
	spec, err := openSpec(o)
	if err != nil {
		t.Fatalf("openSpec: %v", err)
	}
	levels, err := parseRamp("1,2,4,8")
	if err != nil {
		t.Fatalf("parseRamp: %v", err)
	}
	trace, err := openTrace(o, spec, slices.Max(levels))
	if err != nil {
		t.Fatalf("openTrace: %v", err)
	}
	for _, scale := range levels {
		items, err := load.BuildSchedule(spec, catalog, trace, o.traceSeed, o.duration, 0, scale)
		if err != nil {
			t.Fatalf("BuildSchedule x%g: %v", scale, err)
		}
		if last := items[len(items)-1].Time; last < 0.9*o.duration {
			t.Errorf("x%g replay stops at %.1fs of a %gs horizon: the trace ran out", scale, last, o.duration)
		}
	}
}

// TestOpenFlagsRefused: an open-loop flag no run can use — NaN, an
// infinity, zero or a negative where a finite positive value is wanted —
// fails driveOpen by name, with -dry-run and without, before a schedule
// is built or the proxy is dialled. An unchecked NaN -duration or +Inf
// -duration never ends a Poisson class, and an unchecked NaN -ramp
// panics in it. The proxy URL points at a closed port: a flag that
// slipped through would fail there instead, not naming itself.
func TestOpenFlagsRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := options{
		proxyURL: "http://127.0.0.1:1", proxyURLs: []string{"http://127.0.0.1:1"},
		objects: 10, meanKB: 64, rateKBps: 512, catalogSeed: 1, zipfAlpha: 0.73, traceSeed: 7,
		arrival: "poisson", rate: 20, duration: 5, sloMS: 1000, timeScale: 1, maxInflight: 256, format: "csv",
	}
	catalog, err := proxy.BuildCatalog(base.objects, base.meanKB, base.rateKBps, base.catalogSeed)
	if err != nil {
		t.Fatalf("BuildCatalog: %v", err)
	}
	for _, tc := range []struct {
		name string
		set  func(*options)
		want string // in the error; "" for flags a dry run accepts
	}{
		{"valid", func(*options) {}, ""},
		{"ramp NaN", func(o *options) { o.ramp = "1,NaN" }, "ramp level"},
		{"ramp Inf", func(o *options) { o.ramp = "Inf" }, "ramp level"},
		{"ramp 0", func(o *options) { o.ramp = "0" }, "ramp level"},
		{"duration NaN", func(o *options) { o.duration = nan }, "duration"},
		{"duration Inf", func(o *options) { o.duration = inf }, "duration"},
		{"duration -1", func(o *options) { o.duration = -1 }, "duration"},
		{"time-scale NaN", func(o *options) { o.timeScale = nan }, "time scale"},
		{"time-scale Inf", func(o *options) { o.timeScale = inf }, "time scale"},
		{"time-scale -1", func(o *options) { o.timeScale = -1 }, "time scale"},
		{"max-inflight -1", func(o *options) { o.maxInflight = -1 }, "max inflight"},
	} {
		for _, dry := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/dry=%v", tc.name, dry), func(t *testing.T) {
				o := base
				tc.set(&o)
				o.dryRun, o.scheduleOut = dry, filepath.Join(t.TempDir(), "schedule.csv")
				err := driveOpen(o, catalog)
				switch {
				case tc.want == "" && dry && err != nil:
					t.Fatalf("valid flags refused: %v", err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Fatalf("driveOpen: %v, want an error naming %q", err, tc.want)
				}
			})
		}
	}
}
