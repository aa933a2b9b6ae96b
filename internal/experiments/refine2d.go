package experiments

import (
	"cmp"
	"slices"

	"streamcache/internal/core"
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
func (c cell2d) spread(samples []sample) float64 {
	lo, hi, n := 0.0, 0.0, 0
	for _, s := range samples {
		if x, y := s.at[0], s.at[1]; x < c.x0 || x > c.x1 || y < c.y0 || y > c.y1 {
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

// quadtree is the two-axis refiner: the open cells of the coarse grid,
// each pick replacing the cells it bisects by their four quadrants.
type quadtree struct {
	cells            []cell2d
	minGapX, minGapY float64
}

// newQuadtree opens one cell per rectangle of the ascending coarse
// axes (none when either axis has a single value: nothing to refine).
func newQuadtree(xs, ys []float64) *quadtree {
	q := &quadtree{}
	nx, ny := len(xs), len(ys)
	if nx < 2 || ny < 2 {
		return q
	}
	q.minGapX = 2 * (xs[nx-1] - xs[0]) / minGapDivisor
	q.minGapY = 2 * (ys[ny-1] - ys[0]) / minGapDivisor
	q.cells = make([]cell2d, 0, (nx-1)*(ny-1))
	for i := 0; i+1 < nx; i++ {
		for j := 0; j+1 < ny; j++ {
			q.cells = append(q.cells, cell2d{xs[i], xs[i+1], ys[j], ys[j+1]})
		}
	}
	return q
}

func (q *quadtree) pick(samples []sample, k int) ([][]float64, error) {
	// Rank refinable cells; both keys are pure functions of completed
	// rows, so the selection is deterministic.
	type scored struct {
		c      cell2d
		spread float64
	}
	candidates := make([]scored, 0, len(q.cells))
	for _, c := range q.cells {
		if c.x1-c.x0 <= q.minGapX && c.y1-c.y0 <= q.minGapY {
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
	// Split each picked cell into its four quadrants; the quadrants
	// inherit every sample on their closed bounds (once its round has
	// run, at least the fresh center plus one original corner each).
	centers := make([][]float64, min(k, len(candidates)))
	split := map[cell2d]bool{}
	for i := range centers {
		cx, cy := candidates[i].c.center()
		centers[i] = []float64{cx, cy}
		split[candidates[i].c] = true
	}
	// A fresh slice, not q.cells[:0]: a split appends four cells where
	// it read one, so in place it would overwrite the cells behind it
	// before the loop reads them.
	kept := make([]cell2d, 0, len(q.cells)+3*len(centers))
	for _, c := range q.cells {
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
	q.cells = kept
	return centers, nil
}

// refinedESigmaSweep is the carried-over 2-D refinement: the
// underestimation factor e against bandwidth-variability sigma at the
// middle cache fraction, adaptively concentrating points where the
// service-delay surface bends fastest in either direction — resolving
// how the delay-minimizing e shifts as paths get more variable, which
// the paper's separate Figure 9/variability sweeps can only hint at.
var refinedESigmaSweep = spec{
	name:     "Refined sweep: e x sigma, adaptive 2-D (delay objective)",
	note:     "coarse e x sigma grid, then center bisection of the steepest cells; mid-size cache, lognormal variability",
	axes:     []axisFn{refined(eAxis(core.NewHybrid)), refined(sigmaAxis), midCacheAxis},
	metrics:  delayMetrics,
	refineOn: "avg_delay_s",
}
