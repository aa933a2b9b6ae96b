package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

// Experiments are data. The paper's evaluation is one shape repeated —
// cache fraction x policy x one scenario axis, reported as the Section
// 3.3 metrics — so a simulated experiment is a spec value: ordered axes
// and a list of metric column names, compiled into a plan (engine.go).
// The one rule: an experiment may not build a sim.Config or render a
// metric cell itself — compile does both, so a new table is a registry
// entry, not another copy of the sweep loop. The one exception list:
// the eagerly computed static tables (table1, figure2-4, ext-merging).

// point is one sweep point under construction: the simulator
// configuration the chosen axis levels mutate (sim's rule: a point whose
// Levels stays 0, or that has one edge and one level, runs the flat
// simulator, any other the hierarchy).
type point struct {
	sim.HierarchyConfig
	// frac is the cache capacity as a fraction of the scale's unique
	// object bytes; compile turns it into CacheBytes.
	frac float64
}

// column is one metric column: its header name, how to read it off a
// point's metrics and the decimals it prints with.
type column struct {
	name string
	prec int
	of   func(sim.Metrics) float64
}

// columns is the one table every spec's metric names resolve through:
// a metric is read and rounded the same way wherever it is reported.
var columns = []column{
	{"traffic_reduction", 3, func(m sim.Metrics) float64 { return m.TrafficReductionRatio }},
	{"avg_delay_s", 1, func(m sim.Metrics) float64 { return m.AvgServiceDelay }},
	{"avg_quality", 3, func(m sim.Metrics) float64 { return m.AvgStreamQuality }},
	{"total_value", 1, func(m sim.Metrics) float64 { return m.TotalAddedValue }},
	{"hit_ratio", 3, func(m sim.Metrics) float64 { return m.HitRatio }},
	{"edge_byte_frac", 3, func(m sim.Metrics) float64 { return m.EdgeByteFrac }},
	{"peer_byte_frac", 3, func(m sim.Metrics) float64 { return m.PeerByteFrac }},
	{"parent_byte_frac", 3, func(m sim.Metrics) float64 { return m.ParentByteFrac }},
	{"origin_byte_frac", 3, func(m sim.Metrics) float64 { return m.OriginByteFrac }},
}

func columnByName(name string) (column, error) {
	if i := slices.IndexFunc(columns, func(c column) bool { return c.name == name }); i >= 0 {
		return columns[i], nil
	}
	return column{}, fmt.Errorf("experiments: unknown metric column %q", name)
}

// level is one value of an axis: the cells it contributes to the row
// and what it does to the point.
type level struct {
	cells []string
	set   func(*point)
}

// axis is one dimension of a sweep. A categorical axis lists its
// levels; a numeric axis gives ascending values and builds the level at
// any coordinate, which is what lets a refiner place points between the
// declared ones once the axis is marked adaptive. An axis without
// columns and with one level is a fixed setting of the whole table.
type axis struct {
	cols     []string
	levels   []level
	values   []float64
	at       func(v float64) (level, error)
	adaptive bool
}

// axisFn binds an axis to a scale (most take their values from it).
type axisFn func(Scale) axis

// choice is a categorical axis; cols is its comma-separated header.
func choice(cols string, levels ...level) axisFn {
	return func(Scale) axis { return axis{cols: strings.Split(cols, ","), levels: levels} }
}

// opt is a single-cell level of a choice.
func opt(label string, set func(*point)) level { return level{[]string{label}, set} }

// fixed applies one setting to every point and adds no column.
func fixed(set func(*point)) axisFn {
	return func(Scale) axis { return axis{levels: []level{{set: set}}} }
}

// refined marks a numeric axis adaptive: its declared values are the
// coarse pass and Scale.RefineBudget extra points go where the spec's
// refineOn metric bends fastest.
func refined(bind axisFn) axisFn {
	return func(s Scale) axis {
		a := bind(s)
		a.adaptive = true
		return a
	}
}

// cacheAxis is the x axis of Figures 5-12: the cache capacity over
// Scale.CacheFractions of the unique object bytes, labelled in percent.
func cacheAxis(s Scale) axis {
	return axis{cols: []string{"cache_pct"}, values: s.CacheFractions, at: func(frac float64) (level, error) {
		return opt(f3(frac*100), func(pt *point) { pt.frac = frac }), nil
	}}
}

// midCacheAxis pins the cache at the scale's middle fraction (and still
// reports it), the fixed size of the single-axis scenario sweeps.
func midCacheAxis(s Scale) axis {
	a := cacheAxis(s)
	a.values = []float64{s.midFraction()}
	return a
}

// cacheAt fixes the cache size without reporting it.
func cacheAt(frac func(Scale) float64) axisFn {
	return func(s Scale) axis {
		f := frac(s)
		return fixed(func(pt *point) { pt.frac = f })(s)
	}
}

// fivePercentCache is the Section 6 extensions' fixed cache size.
var fivePercentCache = cacheAt(func(Scale) float64 { return 0.05 })

// policyAxis compares (stateless) replacement policies by name.
func policyAxis(policies ...core.Policy) axisFn {
	levels := make([]level, len(policies))
	for i, p := range policies {
		levels[i] = opt(p.Name(), func(pt *point) { pt.Policy = p })
	}
	return choice("policy", levels...)
}

// eAxis sweeps the bandwidth under-estimation factor e of Section 2.5
// over Scale.ESweep, between IB (e=0) and PB (e=1); hybrid is the delay
// (core.NewHybrid) or the value (core.NewHybridV) form of the policy.
func eAxis(hybrid func(e float64) (core.Policy, error)) axisFn {
	return func(s Scale) axis {
		return axis{cols: []string{"e"}, values: s.ESweep, at: func(e float64) (level, error) {
			p, err := hybrid(e)
			return opt(f3(e), func(pt *point) { pt.Policy = p }), err
		}}
	}
}

// sigmaAxis sweeps the lognormal sample-to-mean bandwidth variability:
// sigma 0 is constant bandwidth, 0.25 about the measured paths of
// Figure 4, 0.55 about the NLANR logs of Figure 3.
func sigmaAxis(s Scale) axis {
	return axis{cols: []string{"sigma"}, values: s.sigmas(), at: func(sigma float64) (level, error) {
		v, err := bandwidth.NewLognormalRatio(sigma)
		return opt(f3(sigma), func(pt *point) { pt.Variation = v }), err
	}}
}

// estimator is one level of an "estimator" choice (Section 2.7).
func estimator(label string, e sim.Estimator) level {
	return opt(label, func(pt *point) { pt.Estimator = e })
}

// variation fixes the table's bandwidth variability model.
func variation(v bandwidth.Variability) axisFn {
	return fixed(func(pt *point) { pt.Variation = v })
}

// pbPolicy fixes the policy to PB, the subject of the single-policy
// tables.
var pbPolicy = fixed(func(pt *point) { pt.Policy = core.NewPB() })

// spec is one simulated experiment as a value.
type spec struct {
	name, note string
	// axes in declared order, outermost first: rows stream in that
	// order and the header opens with the axes' columns.
	axes []axisFn
	// metrics names the columns (of the columns table) that follow.
	metrics []string
	// refineOn names the metric the adaptive axes rank by (required
	// when an axis is refined; its column need not be reported).
	refineOn string
}

// compile binds the spec to a scale: validate, size the cache against
// the arena's sizing workload, and lay the cross product of the axes
// out in declared order as the plan's coarse round — plus, when axes
// are adaptive, the refiner and the builder of the points it asks for.
// Header = axis columns ++ metric names (++ source when adaptive); rows
// render from the same two lists, so the two agree by construction.
func (sp spec) compile(s Scale) (*plan, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	total, err := s.totalBytes()
	if err != nil {
		return nil, err
	}
	p := &plan{meta: TableMeta{Name: sp.name, Note: sp.note}}
	axes := make([]axis, len(sp.axes))
	var adaptive []axis
	for i, bind := range sp.axes {
		a := bind(s)
		for _, v := range a.values {
			l, err := a.at(v)
			if err != nil {
				return nil, err
			}
			a.levels = append(a.levels, l)
		}
		if a.adaptive {
			adaptive = append(adaptive, a)
		}
		axes[i] = a
		p.meta.Header = append(p.meta.Header, a.cols...)
	}
	for _, a := range axes {
		// A refined point sits at the refiner's coordinates on the
		// adaptive axes and at the only level of every other axis.
		if len(adaptive) > 0 && (a.adaptive && a.at == nil || !a.adaptive && len(a.levels) != 1) {
			return nil, fmt.Errorf("experiments: %s: beside an adaptive axis, axis %v must be numeric and adaptive or have one level", sp.name, a.cols)
		}
	}
	cols := make([]column, len(sp.metrics))
	for i, name := range sp.metrics {
		if cols[i], err = columnByName(name); err != nil {
			return nil, err
		}
	}
	p.meta.Header = append(p.meta.Header, sp.metrics...)
	rank := func(sim.Metrics) float64 { return 0 } // a fixed grid ranks nothing
	if len(adaptive) > 0 {
		p.meta.Header = append(p.meta.Header, "source")
		c, err := columnByName(sp.refineOn)
		if err != nil {
			return nil, err
		}
		rank = c.of
	}

	// mk builds the point at one level per axis: its configuration, and
	// the row its answer formats to.
	mk := func(chosen []level, coords []float64) planPoint {
		pt := point{HierarchyConfig: sim.HierarchyConfig{Config: sim.Config{
			Workload: workload.Config{NumObjects: s.Objects, NumRequests: s.Requests},
			Runs:     s.Runs, Seed: s.Seed,
		}}}
		var labels []string
		for _, l := range chosen {
			labels = append(labels, l.cells...)
			l.set(&pt)
		}
		pt.CacheBytes = int64(pt.frac * float64(total))
		return planPoint{coords: coords, cfg: &pt.HierarchyConfig, eval: func(answer sim.Metrics) ([]string, float64) {
			row := slices.Clone(labels)
			for _, c := range cols {
				row = append(row, strconv.FormatFloat(c.of(answer), 'f', c.prec, 64))
			}
			return row, rank(answer)
		}}
	}
	var cross func(k int, chosen []level, coords []float64)
	cross = func(k int, chosen []level, coords []float64) {
		if k == len(axes) {
			p.coarse = append(p.coarse, mk(chosen, slices.Clone(coords)))
			return
		}
		for i, l := range axes[k].levels {
			c := coords
			if axes[k].adaptive {
				c = append(c, axes[k].values[i])
			}
			cross(k+1, append(chosen, l), c)
		}
	}
	cross(0, nil, nil)

	switch len(adaptive) {
	case 0:
		return p, nil
	case 1:
		p.refine = bisect
	case 2:
		p.refine = newQuadtree(adaptive[0].values, adaptive[1].values).pick
	default:
		return nil, fmt.Errorf("experiments: %s: %d adaptive axes, refiners exist for 1 and 2", sp.name, len(adaptive))
	}
	p.at = func(coords []float64) (planPoint, error) {
		chosen := make([]level, len(axes))
		n := 0
		for k, a := range axes {
			if !a.adaptive {
				chosen[k] = a.levels[0]
				continue
			}
			l, err := a.at(coords[n])
			if err != nil {
				return planPoint{}, err
			}
			chosen[k] = l
			n++
		}
		return mk(chosen, coords), nil
	}
	return p, nil
}
