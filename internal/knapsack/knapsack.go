// Package knapsack implements the optimization kernels behind the paper's
// cache-placement results. Section 2.3 shows that optimal static placement
// under known request rates is a fractional knapsack on the ratio
// lambda_i/b_i; Section 2.6's value-maximization variant is a 0/1 knapsack
// (NP-hard), for which the paper adopts a greedy density heuristic. An
// exact dynamic-programming solver over integer weights is included to
// validate the greedy on small instances.
package knapsack

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadInput reports an invalid problem instance.
var ErrBadInput = errors.New("knapsack: invalid input")

// Item is one candidate with a profit density Profit/Weight.
type Item struct {
	ID     int
	Profit float64 // total profit if fully taken
	Weight float64 // capacity consumed if fully taken
}

// Fractional solves the fractional knapsack exactly: items are taken in
// decreasing Profit/Weight order, splitting at most one item. It returns
// the fraction taken of each input item (aligned with the input slice)
// and the total profit. Items with non-positive weight and positive
// profit are taken for free; items with non-positive profit are skipped.
func Fractional(items []Item, capacity float64) ([]float64, float64, error) {
	if capacity < 0 || math.IsNaN(capacity) {
		return nil, 0, fmt.Errorf("%w: capacity=%v, want >= 0", ErrBadInput, capacity)
	}
	for _, it := range items {
		if math.IsNaN(it.Profit) || math.IsNaN(it.Weight) {
			return nil, 0, fmt.Errorf("%w: item %d has NaN field", ErrBadInput, it.ID)
		}
	}
	frac := make([]float64, len(items))
	order := make([]int, 0, len(items))
	total := 0.0
	for i, it := range items {
		if it.Profit <= 0 {
			continue
		}
		if it.Weight <= 0 {
			// Free profit: always take fully.
			frac[i] = 1
			total += it.Profit
			continue
		}
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := items[order[a]], items[order[b]]
		return ia.Profit/ia.Weight > ib.Profit/ib.Weight
	})
	remaining := capacity
	for _, i := range order {
		it := items[i]
		if remaining <= 0 {
			break
		}
		if it.Weight <= remaining {
			frac[i] = 1
			total += it.Profit
			remaining -= it.Weight
			continue
		}
		f := remaining / it.Weight
		frac[i] = f
		total += float64(it.Profit * f)
		remaining = 0
	}
	return frac, total, nil
}

// Greedy01 solves the 0/1 knapsack with the density heuristic the paper
// uses in Section 2.6: take items in decreasing Profit/Weight order,
// skipping any that no longer fit. To preserve the classic 1/2
// approximation bound it also considers the single most profitable
// fitting item and returns whichever solution is better. It returns the
// take decision per input item and the total profit.
func Greedy01(items []Item, capacity float64) ([]bool, float64, error) {
	if capacity < 0 || math.IsNaN(capacity) {
		return nil, 0, fmt.Errorf("%w: capacity=%v, want >= 0", ErrBadInput, capacity)
	}
	take := make([]bool, len(items))
	order := make([]int, 0, len(items))
	for i, it := range items {
		if math.IsNaN(it.Profit) || math.IsNaN(it.Weight) {
			return nil, 0, fmt.Errorf("%w: item %d has NaN field", ErrBadInput, it.ID)
		}
		if it.Profit <= 0 {
			continue
		}
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := items[order[a]], items[order[b]]
		da := density(ia)
		db := density(ib)
		return da > db
	})
	remaining := capacity
	total := 0.0
	for _, i := range order {
		w := items[i].Weight
		if w < 0 {
			w = 0
		}
		if w <= remaining {
			take[i] = true
			total += items[i].Profit
			remaining -= w
		}
	}
	// Compare against the best single fitting item (restores the 1/2 bound).
	bestSingle, bestProfit := -1, 0.0
	for i, it := range items {
		w := it.Weight
		if w < 0 {
			w = 0
		}
		if it.Profit > bestProfit && w <= capacity {
			bestSingle, bestProfit = i, it.Profit
		}
	}
	if bestSingle >= 0 && bestProfit > total {
		for i := range take {
			take[i] = false
		}
		take[bestSingle] = true
		return take, bestProfit, nil
	}
	return take, total, nil
}

func density(it Item) float64 {
	if it.Weight <= 0 {
		return math.Inf(1)
	}
	return it.Profit / it.Weight
}

// IntItem is an integer-weight item for the exact DP solver.
type IntItem struct {
	Profit float64
	Weight int
}

// Exact01 solves the 0/1 knapsack exactly by dynamic programming over
// integer weights. Intended for validating Greedy01 on small instances;
// the table has capacity+1 entries.
func Exact01(items []IntItem, capacity int) (float64, error) {
	if capacity < 0 {
		return 0, fmt.Errorf("%w: capacity=%d, want >= 0", ErrBadInput, capacity)
	}
	for i, it := range items {
		if it.Weight < 0 {
			return 0, fmt.Errorf("%w: item %d weight=%d, want >= 0", ErrBadInput, i, it.Weight)
		}
		if math.IsNaN(it.Profit) {
			return 0, fmt.Errorf("%w: item %d has NaN profit", ErrBadInput, i)
		}
	}
	best := make([]float64, capacity+1)
	for _, it := range items {
		if it.Profit <= 0 {
			continue
		}
		for w := capacity; w >= it.Weight; w-- {
			if cand := best[w-it.Weight] + it.Profit; cand > best[w] {
				best[w] = cand
			}
		}
	}
	return best[capacity], nil
}
