package main

import (
	"slices"
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
