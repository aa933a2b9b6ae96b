package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"streamcache/internal/experiments"
	"streamcache/internal/load"
	"streamcache/internal/proxy"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

// driveOpen runs the open-loop mode: build the workload spec and one
// timed schedule per ramp level, run them, and emit the live-capacity
// table plus any per-class, per-request and schedule artifacts. Every
// flag is checked before anything is built, so -dry-run refuses what a
// real run would.
func driveOpen(o options, catalog *proxy.Catalog) error {
	spec, err := openSpec(o)
	if err != nil {
		return err
	}
	levels, err := parseRamp(o.ramp)
	if err != nil {
		return err
	}
	if !(o.duration > 0) || math.IsInf(o.duration, 1) { // NaN fails
		return fmt.Errorf("duration %v, want finite > 0", o.duration)
	}
	run, err := load.Options{
		Edges:       o.proxyURLs,
		Catalog:     catalog,
		Spec:        spec,
		TimeScale:   o.timeScale,
		MaxInflight: o.maxInflight,
		Verify:      o.verify,
	}.Normalize()
	if err != nil {
		return err
	}
	trace, err := openTrace(o, spec, slices.Max(levels))
	if err != nil {
		return err
	}

	// The deterministic arrival schedule of every ramp level — the
	// byte-identical-across-runs artifact — before anything is issued.
	schedules := make([][]load.Item, len(levels))
	for li, scale := range levels {
		schedules[li], err = load.BuildSchedule(spec, catalog, trace, sim.SplitSeed(o.traceSeed, int64(li)), o.duration, o.requests, scale)
		if err != nil {
			return fmt.Errorf("level %d (x%g): %w", li, scale, err)
		}
		if o.scheduleOut != "" || o.dryRun {
			path := cmp.Or(o.scheduleOut, "-")
			if err := o.emit(path, li > 0, load.ScheduleTable(fmt.Sprintf("open-schedule-L%d", li), schedules[li])); err != nil {
				return err
			}
		}
	}
	if o.dryRun {
		return nil
	}

	if err := waitReachable(o.proxyURL, o.wait); err != nil {
		return err
	}
	note := fmt.Sprintf("open-loop capacity sweep against %s: %d classes, horizon %gs, time-scale %g, max-inflight %d",
		o.proxyURL, len(spec.Classes), o.duration, o.timeScale, o.maxInflight)
	// Summary rows stream as their levels finish, so an interrupted sweep
	// keeps the levels it completed.
	summary, err := o.open(o.out, false)
	if err != nil {
		return err
	}
	defer summary.close()
	if err := summary.Begin(experiments.LiveCapacityMeta(note)); err != nil {
		return err
	}
	classMeta := experiments.LiveClassMeta(note)
	classes := &experiments.Table{Name: classMeta.Name, Note: classMeta.Note, Header: classMeta.Header}

	totalCompleted := 0
	for li, scale := range levels {
		run.RateScale = scale
		outcomes, report, err := load.Run(run, schedules[li])
		if err != nil {
			return fmt.Errorf("level %d (x%g): %w", li, scale, err)
		}
		totalCompleted += report.Total.Completed
		if err := summary.Row(report.SummaryRow(li)); err != nil {
			return err
		}
		classes.Rows = append(classes.Rows, report.ClassRows(li)...)
		if o.perRequest != "" {
			// One outcome table per level, sharing the destination file.
			if err := o.emit(o.perRequest, li > 0, load.OutcomeTable(fmt.Sprintf("open-requests-L%d", li), outcomes)); err != nil {
				return err
			}
		}
	}
	if err := summary.End(); err != nil {
		return err
	}
	if err := summary.close(); err != nil {
		return err
	}
	if o.perClass != "" {
		if err := o.emit(o.perClass, false, classes); err != nil {
			return err
		}
	}
	if totalCompleted == 0 {
		return fmt.Errorf("no requests completed across %d ramp levels", len(levels))
	}
	return nil
}

// openSpec resolves the workload spec: a spec file wins, else the
// single flag-driven class.
func openSpec(o options) (*load.Spec, error) {
	if o.spec != "" {
		return load.ParseSpecFile(o.spec)
	}
	spec := load.SingleClass(o.rate, o.sloMS)
	c := &spec.Classes[0]
	c.ZipfAlpha = o.zipfAlpha
	switch o.arrival {
	case "poisson":
	case "trace":
		c.Arrival = load.ArrivalSpec{Process: "trace"}
	case "onoff":
		// Ten sources with a 1s-on/4s-off duty cycle whose aggregate mean
		// matches -rate: peak = rate / (sources * 0.2).
		c.Arrival = load.ArrivalSpec{Process: "onoff", OnOff: load.OnOff{Sources: 10, PeakHz: o.rate / 2}}
	default:
		return nil, fmt.Errorf("arrival=%q, want poisson, trace or onoff", o.arrival)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// openTrace generates the request trace for trace-replay classes: a
// Table 1 style trace over the proxyd catalog's objects at -rate
// requests per second, long enough to cover the horizon at the largest
// ramp level — a level compresses the trace's timestamps by its
// multiplier, so it consumes that many times the requests.
func openTrace(o options, spec *load.Spec, maxLevel float64) ([]workload.Request, error) {
	if !spec.UsesTrace() {
		return nil, nil
	}
	n := int(math.Ceil(o.rate*o.duration*max(maxLevel, 1))) * 2
	if n < o.requests {
		n = o.requests
	}
	w, err := workload.Generate(workload.Config{
		NumObjects:  o.objects,
		NumRequests: n,
		ZipfAlpha:   o.zipfAlpha,
		RequestRate: o.rate,
		Seed:        o.traceSeed,
	})
	if err != nil {
		return nil, err
	}
	return w.Requests, nil
}

// parseRamp parses the -ramp multiplier list; empty means one level at 1.
func parseRamp(s string) ([]float64, error) {
	if s == "" {
		return []float64{1}, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) { // NaN fails
			return nil, fmt.Errorf("ramp level %q, want finite > 0", p)
		}
		out = append(out, v)
	}
	return out, nil
}
