package main

import (
	"errors"
	"math"
	"strings"
	"testing"

	"streamcache/internal/sim"
)

func TestEstimatorByName(t *testing.T) {
	nan := math.NaN()
	tests := []struct {
		name       string
		estimator  string
		alpha, e   float64
		wantOracle bool
		wantErr    string // the flag the error names; sim's tests own the ranges
	}{
		{name: "oracle", estimator: "oracle", alpha: nan, e: nan, wantOracle: true},
		{name: "ewma", estimator: "ewma", alpha: 0.3, e: nan},
		{name: "ewma alpha 1", estimator: "ewma", alpha: 1, e: 0.5},
		{name: "ewma alpha 0", estimator: "ewma", alpha: 0, e: 0.5, wantErr: "-ewma-alpha"},
		{name: "ewma alpha above 1", estimator: "ewma", alpha: 1.5, e: 0.5, wantErr: "-ewma-alpha"},
		{name: "ewma alpha NaN", estimator: "ewma", alpha: nan, e: 0.5, wantErr: "-ewma-alpha"},
		{name: "underestimate", estimator: "underestimate", alpha: nan, e: 0.5},
		{name: "underestimate e 0", estimator: "underestimate", alpha: 0.3, e: 0},
		{name: "underestimate e 1", estimator: "underestimate", alpha: 0.3, e: 1},
		{name: "underestimate e negative", estimator: "underestimate", alpha: 0.3, e: -3, wantErr: "-e:"},
		{name: "underestimate e above 1", estimator: "underestimate", alpha: 0.3, e: 1.5, wantErr: "-e:"},
		{name: "underestimate e NaN", estimator: "underestimate", alpha: 0.3, e: nan, wantErr: "-e:"},
		{name: "unknown", estimator: "psychic", alpha: 0.3, e: 0.5, wantErr: "unknown estimator"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			est, err := estimatorByName(tt.estimator, tt.alpha, tt.e)
			if tt.wantErr != "" {
				if err == nil || !strings.HasPrefix(err.Error(), tt.wantErr) {
					t.Fatalf("estimatorByName(%q, %v, %v): %v, want an error naming %s", tt.estimator, tt.alpha, tt.e, err, tt.wantErr)
				}
				if tt.estimator != "psychic" && !errors.Is(err, sim.ErrBadConfig) {
					t.Errorf("%v, want sim.ErrBadConfig", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (est == nil) != tt.wantOracle {
				t.Fatalf("estimator nil = %v, want %v", est == nil, tt.wantOracle)
			}
		})
	}
}
