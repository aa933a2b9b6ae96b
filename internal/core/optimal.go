package core

import (
	"fmt"
	"math"

	"streamcache/internal/knapsack"
)

// OptimalPlacement computes the optimal static cache allocation of
// Section 2.3, assuming known request rates lambda and known path
// bandwidths bw (both indexed like objs): a fractional knapsack that
// takes objects in decreasing lambda_i/b_i order, caching up to
// (r_i - b_i)T_i bytes of each, until the capacity is exhausted. Objects
// with r_i <= b_i are not cached. The result maps object ID to cached
// prefix bytes.
func OptimalPlacement(objs []Object, lambda, bw []float64, capacity int64) (map[int]int64, error) {
	if len(lambda) != len(objs) || len(bw) != len(objs) {
		return nil, fmt.Errorf("%w: objs/lambda/bw lengths %d/%d/%d differ",
			ErrBadCache, len(objs), len(lambda), len(bw))
	}
	if capacity < 0 {
		return nil, fmt.Errorf("%w: capacity=%d, want >= 0", ErrBadCache, capacity)
	}
	items := make([]knapsack.Item, len(objs))
	for i, obj := range objs {
		b := effBW(bw[i])
		if lambda[i] < 0 {
			return nil, fmt.Errorf("%w: lambda[%d]=%v, want >= 0", ErrBadCache, i, lambda[i])
		}
		if obj.Rate <= b {
			continue // abundant bandwidth: x_i = 0
		}
		// Round the deficit up to whole bytes so that fully-taken objects
		// reach exactly zero startup delay.
		amount := math.Ceil((obj.Rate - b) * obj.Duration)
		if amount > float64(obj.Size) {
			amount = float64(obj.Size)
		}
		// Delay reduction per cached byte is lambda_i/b_i, so the item
		// profit for caching `amount` bytes is lambda_i*amount/b_i.
		items[i] = knapsack.Item{
			ID:     obj.ID,
			Profit: lambda[i] * amount / b,
			Weight: amount,
		}
	}
	frac, _, err := knapsack.Fractional(items, float64(capacity))
	if err != nil {
		return nil, fmt.Errorf("core: optimal placement: %w", err)
	}
	placement := make(map[int]int64)
	for i, f := range frac {
		if f <= 0 {
			continue
		}
		var bytes int64
		if f >= 1-1e-12 {
			bytes = int64(items[i].Weight) // weights are integral
		} else {
			bytes = int64(f * items[i].Weight)
		}
		if bytes > 0 {
			placement[objs[i].ID] = bytes
		}
	}
	return placement, nil
}

// ExpectedDelay returns the request-weighted mean startup delay of a
// placement under constant bandwidth, the objective minimized in
// Section 2.2. It is the analytic counterpart of the simulator's delay
// metric and is used to verify optimality of OptimalPlacement.
func ExpectedDelay(objs []Object, lambda, bw []float64, placement map[int]int64) (float64, error) {
	if len(lambda) != len(objs) || len(bw) != len(objs) {
		return 0, fmt.Errorf("%w: objs/lambda/bw lengths %d/%d/%d differ",
			ErrBadCache, len(objs), len(lambda), len(bw))
	}
	totalRate := 0.0
	weighted := 0.0
	for i, obj := range objs {
		totalRate += lambda[i]
		weighted += float64(lambda[i] * StartupDelay(obj, placement[obj.ID], effBW(bw[i])))
	}
	if totalRate == 0 {
		return 0, nil
	}
	return weighted / totalRate, nil
}

// OptimalValuePlacement computes the greedy solution to the Section 2.6
// value-maximization problem: choose a set of objects to cache the full
// deficit [T_i r_i - T_i b_i]+ of, maximizing total lambda_i*V_i, using
// the density heuristic lambda_i V_i / (T_i r_i - T_i b_i). The exact
// problem is an NP-hard 0/1 knapsack. The result maps object ID to
// cached bytes and reports the achieved total value rate.
func OptimalValuePlacement(objs []Object, lambda, bw []float64, capacity int64) (map[int]int64, float64, error) {
	if len(lambda) != len(objs) || len(bw) != len(objs) {
		return nil, 0, fmt.Errorf("%w: objs/lambda/bw lengths %d/%d/%d differ",
			ErrBadCache, len(objs), len(lambda), len(bw))
	}
	if capacity < 0 {
		return nil, 0, fmt.Errorf("%w: capacity=%d, want >= 0", ErrBadCache, capacity)
	}
	items := make([]knapsack.Item, len(objs))
	for i, obj := range objs {
		b := effBW(bw[i])
		if lambda[i] < 0 {
			return nil, 0, fmt.Errorf("%w: lambda[%d]=%v, want >= 0", ErrBadCache, i, lambda[i])
		}
		deficit := (obj.Rate - b) * obj.Duration
		if deficit <= 0 {
			// Immediately servable without caching: value earned for free,
			// so it never competes for space.
			continue
		}
		if deficit > float64(obj.Size) {
			deficit = float64(obj.Size)
		}
		items[i] = knapsack.Item{ID: obj.ID, Profit: lambda[i] * obj.Value, Weight: deficit}
	}
	take, total, err := knapsack.Greedy01(items, float64(capacity))
	if err != nil {
		return nil, 0, fmt.Errorf("core: optimal value placement: %w", err)
	}
	placement := make(map[int]int64)
	for i, tk := range take {
		if tk {
			placement[objs[i].ID] = int64(items[i].Weight)
		}
	}
	return placement, total, nil
}
