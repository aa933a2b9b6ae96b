package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"streamcache/internal/par"
	"streamcache/internal/rowlog"
	"streamcache/internal/sim"
)

// The sweep engine: every table is a plan — a coarse round of points
// plus, for the adaptive sweeps, a refiner that asks for more rounds —
// and one runner streams it into a RowSink. Each round hands the points
// it must simulate to sim.Arena.ScorePending, which scores them over a
// bounded worker pool, and formats and emits the rows in index order.
// Points are self-contained (each run derives all of its randomness from
// the config seed via sim.SplitSeed), so a streamed table is
// byte-identical for every Parallelism value and any goroutine schedule.
// Simulated experiments reach a plan through spec.compile (spec.go); the
// static tables build theirs from rows they computed eagerly.

// exec is the execution context of one streamed run: the scale — its
// worker bound, the Shard of the row space this process owns, the
// Journal whose completed rows are replayed instead of recomputed and
// which checkpoints every row and fetched metric, the Exchange
// resolving foreign refinement metrics, the Counters — plus the table
// being streamed.
type exec struct {
	Scale
	table string // table name, the journal key prefix
}

// foreignMetric resolves the refinement metric of a point owned by
// another shard without simulating it: first the journal (a prior run
// already fetched or computed it), then the exchange. A hit from the
// exchange is checkpointed so a crash-resume does not depend on the
// collector still being reachable.
func (x exec) foreignMetric(index int) (float64, bool) {
	if r, _ := x.Journal.replay(x.table, index); r.HasMetric {
		return r.Metric, true
	}
	if x.Exchange == nil {
		return 0, false
	}
	// Telemetry only: the wait feeds Counters.ExchangeWaitNanos, never a
	// row or a refinement decision.
	start := time.Now()
	m, ok := x.Exchange.ForeignMetric(x.table, index)
	if x.Counters != nil {
		x.Counters.ExchangeWaitNanos.Add(int64(time.Since(start)))
	}
	if !ok {
		return 0, false
	}
	if x.Counters != nil {
		x.Counters.ExchangeHits.Add(1)
	}
	if x.Journal != nil {
		// Best-effort checkpoint: a write failure surfaces on the row
		// path, not here (the metric is already in hand).
		_ = x.Journal.apply(rowlog.MetricRecord(x.table, index, m))
	}
	return m, true
}

// parallelism resolves the effective worker bound of the scale.
// Negative values are rejected by Scale.validate before sweeps run.
func (s Scale) parallelism() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// planPoint is one row of a plan: already rendered (row; the static
// tables) or simulated — cfg, which the round hands to
// sim.Arena.ScorePending, and eval, which formats its answer into the
// row without the trailing source cell plus the scalar an adaptive plan
// ranks by.
type planPoint struct {
	row    []string
	coords []float64            // position on the adaptive axes; nil on a fixed grid
	cfg    *sim.HierarchyConfig // nil for the static rows
	eval   func(answer sim.Metrics) (row []string, metric float64)
}

// plan is one table ready to run: its identity, the coarse round in row
// order and, for an adaptive sweep, the refiner choosing where up to
// Scale.RefineBudget further points go and at building the point at the
// coordinates it picks. A plan without a refiner is a fixed grid: its
// rows carry no source cell and no metric.
type plan struct {
	meta   TableMeta
	file   string // output stem a journal's table record names
	coarse []planPoint
	refine refiner
	at     func(coords []float64) (planPoint, error)
}

// staticPlan is the plan of a table whose rows were computed eagerly
// (the workload- and trace-characterization tables); sharding it splits
// only its output, not its (cheap) computation.
func staticPlan(meta TableMeta, rows [][]string) *plan {
	p := &plan{meta: meta, coarse: make([]planPoint, len(rows))}
	for i, row := range rows {
		p.coarse[i].row = row
	}
	return p
}

// run streams the plan round by round through round, which evaluates
// the points of one round (global indices base..base+len(pts)-1) and
// returns their samples: the coarse round in row order — a full barrier,
// since refinement decisions are keyed on the complete coarse response —
// then rounds of at most refineRoundPoints points the refiner picks from
// every completed sample, until the budget is spent or the refiner has
// nothing left to resolve. Global row indices continue across rounds;
// run returns the table's row count, every shard's alike.
func (p *plan) run(x exec, round func(pts []planPoint, base int, source string) ([]sample, error)) (int, error) {
	samples, err := round(p.coarse, 0, "coarse")
	next := len(p.coarse)
	if err != nil || p.refine == nil {
		return next, err
	}
	for remaining := x.RefineBudget; remaining > 0; {
		picks, err := p.refine(samples, min(refineRoundPoints, remaining))
		if err != nil || len(picks) == 0 {
			return next, err
		}
		pts := make([]planPoint, len(picks))
		for i, coords := range picks {
			if pts[i], err = p.at(coords); err != nil {
				return next, err
			}
		}
		refined, err := round(pts, next, "refined")
		if err != nil {
			return next, err
		}
		samples = append(samples, refined...)
		next += len(picks)
		remaining -= len(picks)
	}
	return next, nil
}

// evalRound evaluates one round of a plan (global indices
// base..base+len(pts)-1) and is the only code that knows row ownership,
// resume replay, the Counters and foreign metrics. It emits each owned
// row in index order and, for an adaptive plan (rows gain the source
// cell and carry their metric), returns every point's sample in index
// order — the full response the next refinement decision needs. A fixed
// grid needs no one else's metrics, so a shard neither resolves nor
// simulates foreign points.
//
// The round runs own work first: a shard resolves its owned points
// (replaying journaled rows when present), hands the rest to the arena
// (sim.Arena.ScorePending), which scores them together by share key, one
// key after another over the whole worker budget, and formats and emits
// them; only then does it resolve the foreign ones — from journaled
// metric checkpoints, then through the MetricExchange. So N shards
// simulate a round concurrently and trade metrics once at its end; a
// shard that waited on a peer's point g+1 before starting its own g+2
// would instead alternate with that peer point by point and gain nothing
// from being sharded. Only when journal and exchange both miss (no
// exchange configured, collector down, owner dead) does a shard simulate
// a foreign point locally, through the same ScorePending; the
// determinism contract makes the fallback metric bit-identical to the
// owner's, so the refined point set and the emitted rows never depend on
// which path produced a metric or in what order metrics arrived —
// decisions read the completed vector.
func evalRound(x exec, pts []planPoint, base int, adaptive bool, source string, emit func(r MetricRow) error) ([]sample, error) {
	samples := make([]sample, len(pts))
	owned, err := x.owned(pts, base)
	if err != nil {
		return nil, err
	}
	// phase runs one half of the round, the owned points or the foreign
	// ones; rows reach emit only for owned points.
	phase := func(own bool) error {
		is, rows, ok := x.resolvePhase(pts, owned, own, base, adaptive)
		var cfgs []sim.HierarchyConfig
		for j, i := range is {
			if !ok[j] {
				cfgs = append(cfgs, *pts[i].cfg)
			}
		}
		ms, err := x.Arena.ScorePending(cfgs, x.parallelism())
		if err != nil {
			return err
		}
		for j, i := range is {
			r := rows[j]
			if !ok[j] {
				if x.Counters != nil {
					x.Counters.Evaluations.Add(1)
				}
				row, metric := pts[i].eval(ms[0])
				ms = ms[1:]
				r = MetricRow{Index: base + i, Row: row}
				if adaptive {
					r.Row, r.Metric, r.HasMetric = append(row, source), metric, true
				}
			}
			samples[i] = sample{at: pts[i].coords, metric: r.Metric}
			if own {
				if err := emit(r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := phase(true); err != nil || !adaptive {
		return nil, err
	}
	return samples, phase(false)
}

// resolvePhase resolves the points of one half of a round (global
// indices base..base+len(pts)-1; owned is Scale.owned's answer for them)
// — the owned ones or the foreign ones — concurrently over the worker
// pool, so exchange waits overlap. is lists the half's offsets into pts
// in index order and rows[j] is what resolve answered for pts[is[j]],
// if ok[j]; the points nothing answered are the ones this process
// simulates itself.
func (x exec) resolvePhase(pts []planPoint, owned []bool, own bool, base int, adaptive bool) (is []int, rows []MetricRow, ok []bool) {
	for i := range pts {
		if owned[i] == own {
			is = append(is, i)
		}
	}
	rows, ok = make([]MetricRow, len(is)), make([]bool, len(is))
	par.For(x.parallelism(), len(is), func(j int) {
		rows[j], ok[j] = x.resolve(pts[is[j]], base+is[j], own, adaptive)
	})
	return is, rows, ok
}

// resolve answers the point at global index g without simulating it
// when it can: a foreign point needs only its metric (foreignMetric), a
// static table's row is already rendered, and an owned row the journal
// holds is replayed — rendered payload (source cell included)
// and, for an adaptive plan, the exact metric.
func (x exec) resolve(pt planPoint, g int, own, adaptive bool) (MetricRow, bool) {
	switch {
	case !own:
		m, ok := x.foreignMetric(g)
		return MetricRow{Metric: m}, ok
	case pt.cfg == nil:
		return MetricRow{Index: g, Row: pt.row}, true
	}
	r, ok := x.Journal.replay(x.table, g)
	if !adaptive {
		return MetricRow{Index: g, Row: r.Row}, ok
	}
	return MetricRow{Index: g, Row: r.Row, Metric: r.Metric, HasMetric: true}, ok && r.HasMetric
}

// stream drives one plan into a sink: Begin, ordered rows, End. Rows
// reach the sink through rowlog.Emit, so index-aware sinks (JSONL, the
// collector) observe each row's global index. With s.Journal the engine
// records every row into it too, its table record naming p.file, and
// after the last round ends the table there with its row count.
func stream(s Scale, p *plan, sink RowSink) error {
	if s.Journal != nil {
		sink = MultiSink{rowlog.NewRecorder(p.file, s.Journal.apply), sink}
	}
	if err := sink.Begin(p.meta); err != nil {
		return err
	}
	x := exec{Scale: s, table: p.meta.Name}
	emit := func(row MetricRow) error { return rowlog.Emit(sink, row) }
	n, err := p.run(x, func(pts []planPoint, base int, source string) ([]sample, error) {
		return evalRound(x, pts, base, p.refine != nil, source, emit)
	})
	if err == nil && s.Journal != nil {
		err = s.Journal.apply(rowlog.EndRecord(p.meta.Name, n))
	}
	if err != nil {
		return err
	}
	return sink.End()
}

// cfgsOf returns the configurations of the simulated points of pts.
func cfgsOf(pts []planPoint) []sim.HierarchyConfig {
	var cfgs []sim.HierarchyConfig
	for _, pt := range pts {
		if pt.cfg != nil {
			cfgs = append(cfgs, *pt.cfg)
		}
	}
	return cfgs
}

// Experiment is one named, streamable table of the evaluation suite.
type Experiment struct {
	// Key is the stable short name used by cmd/figures -only and
	// ExperimentByKey.
	Key string
	// File is the CSV file cmd/figures writes the table to; without its
	// extension it is the stem a journal's and the collector's table
	// records name, which `figures -merge` and collectd write it under.
	File string
	// spec is a simulated table's; static builds the plan of a table
	// that simulates nothing. One of the two is set.
	spec   *spec
	static func(Scale) (*plan, error)
}

// build compiles the experiment's plan at the given scale.
func (e Experiment) build(s Scale) (*plan, error) {
	if e.spec != nil {
		return e.spec.compile(s)
	}
	return e.static(s)
}

// Stream runs the experiment at the given scale, pushing rows into sink
// incrementally in deterministic order. The streamed bytes of a
// deterministic sink (CSV, JSONL) are identical for every Parallelism.
// The builder and every sweep point it creates share s.Arena — the
// caller's, so one arena can span every experiment of a figure set,
// else one private to this table. With s.Journal the rows are also
// journaled under the stem of e.File.
func (e Experiment) Stream(s Scale, sink RowSink) error {
	if s.Arena == nil {
		s.Arena = sim.NewArena()
	}
	p, err := e.build(s)
	if err != nil {
		return err
	}
	if p.refine != nil {
		// The refinement rounds ask for points no one declared, over the
		// coarse points' tapes: the arena keeps those, and the columns
		// over them, until the table ends (Declare holds them ahead).
		s.Arena.Hold(p.meta.Name, cfgsOf(p.coarse))
		defer s.Arena.Drop(p.meta.Name)
	}
	p.file = strings.TrimSuffix(e.File, ".csv")
	return stream(s, p, sink)
}

// Experiments returns the full suite in paper order: Table 1 and
// Figures 2-12, then the ablations, the Section 6 extensions, the
// scenario matrix, the cache hierarchy and the adaptively refined axis
// sweeps. Every fixed grid comes before the first adaptive table: a
// refinement round is where the shards of a sharded run trade metrics,
// so a shard that reaches it early should have no fixed rows left to
// score while it waits for a peer's. This registry is the one place a
// table is added: a key, a file name and a spec (or, for a table that
// simulates nothing, a function returning a staticPlan).
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "table1_workload.csv", nil, table1},
		{"figure2", "figure2_bandwidth_distribution.csv", nil, figure2},
		{"figure3", "figure3_bandwidth_variability.csv", nil, figure3},
		{"figure4", "figure4_path_time_series.csv", nil, figure4},
		{"figure5", "figure5_constant_bandwidth.csv", &figure5, nil},
		{"figure6", "figure6_zipf_alpha.csv", &figure6, nil},
		{"figure7", "figure7_nlanr_variability.csv", &figure7, nil},
		{"figure8", "figure8_measured_variability.csv", &figure8, nil},
		{"figure9", "figure9_estimator_sweep.csv", &figure9, nil},
		{"figure10", "figure10_value_constant.csv", &figure10, nil},
		{"figure11", "figure11_value_variable.csv", &figure11, nil},
		{"figure12", "figure12_value_estimator_sweep.csv", &figure12, nil},
		{"ablation-eviction", "ablation_eviction_granularity.csv", &ablationEviction, nil},
		{"ablation-estimators", "ablation_estimators.csv", &ablationEstimators, nil},
		{"ext-merging", "extension_stream_merging.csv", nil, extensionStreamMerging},
		{"ext-partial-viewing", "extension_partial_viewing.csv", &extensionPartialViewing, nil},
		{"ext-active-probing", "extension_active_probing.csv", &extensionActiveProbing, nil},
		{"ext-baselines", "extension_baselines.csv", &extensionBaselines, nil},
		{"scenarios", "scenario_matrix.csv", &scenarioMatrix, nil},
		{"hierarchy", "hierarchy.csv", &hierarchy, nil},
		{"refined-e", "refined_e_sweep.csv", &refinedESweep, nil},
		{"refined-sigma", "refined_sigma_sweep.csv", &refinedSigmaSweep, nil},
		{"refined-cache", "refined_cache_sweep.csv", &refinedCacheSweep, nil},
		{"refined-esigma", "refined_esigma_sweep.csv", &refinedESigmaSweep, nil},
	}
}

// ExperimentByKey looks an experiment up by its stable key.
func ExperimentByKey(key string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Key == key {
			return e, true
		}
	}
	return Experiment{}, false
}

// Stream runs the experiment named by key at the given scale into sink.
func Stream(key string, s Scale, sink RowSink) error {
	e, ok := ExperimentByKey(key)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q", key)
	}
	return e.Stream(s, sink)
}

// Declare tells s.Arena every coarse point the experiments named by keys
// will simulate (sim.Arena.Declare), so that the first round that hands
// a group to sim.Arena.ScorePending scores the members later tables ask
// for too and those tables take the finished Metrics. Call it once,
// before the tables stream, with the arena, shard and journal they will
// run with: it declares only the owned points this process
// will simulate itself, the ones evalRound hands the arena (those
// exec.resolvePhase does not answer). Each round declares its own points again
// as it runs, so refinement rounds share across tables too, once they
// are known; the static tables are not built. An adaptive table's
// coarse points' tapes are also held (sim.Arena.Hold), owned or not,
// until the table ends: its refinement rounds read them, and columns
// over them, after the tables that answered its coarse round are done.
// Without an arena (each table then has its own) it declares nothing.
// Rows are identical whether or not it was called.
func Declare(s Scale, keys ...string) error {
	for _, key := range keys {
		e, ok := ExperimentByKey(key)
		if !ok {
			return fmt.Errorf("experiments: unknown experiment %q", key)
		}
		if e.spec == nil || s.Arena == nil {
			continue
		}
		p, err := e.spec.compile(s)
		if err != nil {
			return err
		}
		if p.refine != nil {
			s.Arena.Hold(p.meta.Name, cfgsOf(p.coarse))
		}
		owned, err := s.owned(p.coarse, 0)
		if err != nil {
			return err
		}
		x := exec{Scale: s, table: p.meta.Name}
		is, _, resolved := x.resolvePhase(p.coarse, owned, true, 0, p.refine != nil)
		for j, i := range is {
			if resolved[j] {
				continue
			}
			if err := s.Arena.Declare(*p.coarse[i].cfg); err != nil {
				return err
			}
		}
	}
	return nil
}
