package experiments

import (
	"cmp"
	"slices"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/sim"
)

// Two-dimensional adaptive refinement: the e x sigma response surface
// (how the best underestimation factor shifts with bandwidth
// variability) bends along both axes at once, so refining each axis
// separately misses the diagonal structure. The 2-D driver runs the
// coarse grid, then repeatedly evaluates the center of the cell whose
// known samples spread the widest, splitting the cell into four
// quadrants that inherit the samples on their closed bounds — a
// quadtree that concentrates points where the surface is steepest in
// any direction.
//
// The determinism contract matches the 1-D driver: cell scores are pure
// functions of completed metrics, every round selects a fixed number of
// cells (refineRoundPoints) ranked by (spread desc, x asc, y asc), and
// points are evaluated through the same shard-aware evalRound, so the
// streamed rows are byte-identical at any Parallelism and the sharded
// union equals the unsharded stream.

// sample2d is one evaluated surface point.
type sample2d struct {
	x, y, metric float64
}

// cell2d is one open refinement rectangle.
type cell2d struct {
	x0, x1, y0, y1 float64
}

// center returns the cell's bisection point.
func (c cell2d) center() (float64, float64) {
	return (c.x0 + c.x1) / 2, (c.y0 + c.y1) / 2
}

// spread scores the cell: the metric range over every known sample on
// its closed bounds. Cells always hold at least two samples (a corner
// of the original grid or a parent's center plus their own corners), so
// the score is well defined from the first round.
func (c cell2d) spread(samples []sample2d) float64 {
	lo, hi, n := 0.0, 0.0, 0
	for _, s := range samples {
		if s.x < c.x0 || s.x > c.x1 || s.y < c.y0 || s.y > c.y1 {
			continue
		}
		if n == 0 || s.metric < lo {
			lo = s.metric
		}
		if n == 0 || s.metric > hi {
			hi = s.metric
		}
		n++
	}
	return hi - lo
}

// adaptiveSweep2D streams a coarse 2-D grid pass followed by
// center-bisection refinement rounds. Rows carry a trailing "source"
// cell; meta.Header must already include it.
type adaptiveSweep2D struct {
	meta   TableMeta
	xs, ys []float64 // ascending coarse axes
	budget int
	point  func(xv, yv float64, innerParallelism int) (row []string, metric float64, err error)
}

func (a *adaptiveSweep2D) tableMeta() TableMeta { return a.meta }

func (a *adaptiveSweep2D) run(x exec, emit func(r MetricRow) error) error {
	type pt struct{ xv, yv float64 }
	nx, ny := len(a.xs), len(a.ys)
	coarse := make([]pt, 0, nx*ny)
	for _, xv := range a.xs {
		for _, yv := range a.ys {
			coarse = append(coarse, pt{xv, yv})
		}
	}
	var samples []sample2d
	evalList := func(list []pt, base int, source string) error {
		ms, err := evalRound(x, len(list), base, func(i, inner int) ([]string, float64, error) {
			return a.point(list[i].xv, list[i].yv, inner)
		}, source, emit)
		if err != nil {
			return err
		}
		for i, m := range ms {
			samples = append(samples, sample2d{x: list[i].xv, y: list[i].yv, metric: m})
		}
		return nil
	}
	// Coarse pass: the full grid in row-major order, a barrier before
	// refinement (cell scores need the complete corner set).
	if err := evalList(coarse, 0, "coarse"); err != nil {
		return err
	}
	next := nx * ny
	if nx < 2 || ny < 2 || a.budget <= 0 {
		return nil
	}
	minGapX := 2 * (a.xs[nx-1] - a.xs[0]) / minGapDivisor
	minGapY := 2 * (a.ys[ny-1] - a.ys[0]) / minGapDivisor

	cells := make([]cell2d, 0, (nx-1)*(ny-1))
	for i := 0; i+1 < nx; i++ {
		for j := 0; j+1 < ny; j++ {
			cells = append(cells, cell2d{a.xs[i], a.xs[i+1], a.ys[j], a.ys[j+1]})
		}
	}
	remaining := a.budget
	for remaining > 0 {
		// Rank refinable cells; both keys are pure functions of
		// completed rows, so the selection is deterministic.
		type scored struct {
			c      cell2d
			spread float64
		}
		candidates := make([]scored, 0, len(cells))
		for _, c := range cells {
			if c.x1-c.x0 <= minGapX && c.y1-c.y0 <= minGapY {
				continue // resolved in both directions
			}
			candidates = append(candidates, scored{c: c, spread: c.spread(samples)})
		}
		slices.SortStableFunc(candidates, func(a, b scored) int {
			if a.spread != b.spread {
				return cmp.Compare(b.spread, a.spread)
			}
			if a.c.x0 != b.c.x0 {
				return cmp.Compare(a.c.x0, b.c.x0)
			}
			return cmp.Compare(a.c.y0, b.c.y0)
		})
		k := refineRoundPoints
		if k > remaining {
			k = remaining
		}
		if k > len(candidates) {
			k = len(candidates)
		}
		if k == 0 {
			return nil // surface fully resolved before the budget ran out
		}
		centers := make([]pt, k)
		for i := 0; i < k; i++ {
			cx, cy := candidates[i].c.center()
			centers[i] = pt{cx, cy}
		}
		if err := evalList(centers, next, "refined"); err != nil {
			return err
		}
		next += k
		remaining -= k
		// Split each refined cell into its four quadrants; the quadrants
		// inherit every sample on their closed bounds (at least the
		// fresh center plus one original corner each).
		split := map[cell2d]bool{}
		for i := 0; i < k; i++ {
			split[candidates[i].c] = true
		}
		kept := cells[:0]
		for _, c := range cells {
			if !split[c] {
				kept = append(kept, c)
				continue
			}
			cx, cy := c.center()
			kept = append(kept,
				cell2d{c.x0, cx, c.y0, cy},
				cell2d{cx, c.x1, c.y0, cy},
				cell2d{c.x0, cx, cy, c.y1},
				cell2d{cx, c.x1, cy, c.y1},
			)
		}
		cells = kept
	}
	return nil
}

// refinedESigmaSweepRunner is the carried-over 2-D refinement: the
// underestimation factor e against bandwidth-variability sigma at the
// middle cache fraction, adaptively concentrating points where the
// service-delay surface bends fastest in either direction — resolving
// how the delay-minimizing e shifts as paths get more variable, which
// the paper's separate Figure 9/variability sweeps can only hint at.
func refinedESigmaSweepRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.Arena
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	frac := s.midFraction()
	return &adaptiveSweep2D{
		meta: TableMeta{
			Name:   "Refined sweep: e x sigma, adaptive 2-D (delay objective)",
			Note:   "coarse e x sigma grid, then center bisection of the steepest cells; mid-size cache, lognormal variability",
			Header: []string{"e", "sigma", "cache_pct", "traffic_reduction", "avg_delay_s", "avg_quality", "source"},
		},
		xs:     s.ESweep,
		ys:     s.sigmas(),
		budget: s.RefineBudget,
		point: func(e, sigma float64, innerPar int) ([]string, float64, error) {
			p, err := core.NewHybrid(e)
			if err != nil {
				return nil, 0, err
			}
			variation, err := bandwidth.NewLognormalRatio(sigma)
			if err != nil {
				return nil, 0, err
			}
			m, err := sim.Run(sim.Config{
				Workload:    s.workload(),
				CacheBytes:  int64(frac * float64(total)),
				Policy:      p,
				Variation:   variation,
				Runs:        s.Runs,
				Seed:        s.Seed,
				Parallelism: innerPar,
				Arena:       arena,
			})
			if err != nil {
				return nil, 0, err
			}
			return []string{
				f3(e), f3(sigma), f3(frac * 100),
				f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.AvgStreamQuality),
			}, m.AvgServiceDelay, nil
		},
	}, nil
}
