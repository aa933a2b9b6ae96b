package main

import (
	"math"
	"testing"
)

func TestEstimatorByName(t *testing.T) {
	nan := math.NaN()
	tests := []struct {
		name       string
		estimator  string
		alpha, e   float64
		wantOracle bool
		wantErr    bool
	}{
		{name: "oracle", estimator: "oracle", alpha: nan, e: nan, wantOracle: true},
		{name: "ewma", estimator: "ewma", alpha: 0.3, e: nan},
		{name: "ewma alpha 1", estimator: "ewma", alpha: 1, e: 0.5},
		{name: "ewma alpha 0", estimator: "ewma", alpha: 0, e: 0.5, wantErr: true},
		{name: "ewma alpha above 1", estimator: "ewma", alpha: 1.5, e: 0.5, wantErr: true},
		{name: "ewma alpha NaN", estimator: "ewma", alpha: nan, e: 0.5, wantErr: true},
		{name: "underestimate", estimator: "underestimate", alpha: nan, e: 0.5},
		{name: "underestimate e 0", estimator: "underestimate", alpha: 0.3, e: 0},
		{name: "underestimate e 1", estimator: "underestimate", alpha: 0.3, e: 1},
		{name: "underestimate e negative", estimator: "underestimate", alpha: 0.3, e: -3, wantErr: true},
		{name: "underestimate e above 1", estimator: "underestimate", alpha: 0.3, e: 1.5, wantErr: true},
		{name: "underestimate e NaN", estimator: "underestimate", alpha: 0.3, e: nan, wantErr: true},
		{name: "unknown", estimator: "psychic", alpha: 0.3, e: 0.5, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := estimatorByName(tt.estimator, tt.alpha, tt.e)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("estimatorByName(%q, %v, %v) accepted", tt.estimator, tt.alpha, tt.e)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (f == nil) != tt.wantOracle {
				t.Fatalf("factory nil = %v, want %v", f == nil, tt.wantOracle)
			}
			if f != nil {
				// A valid factory builds an estimator without panicking.
				f(0, 1e5).Estimate()
			}
		})
	}
}
