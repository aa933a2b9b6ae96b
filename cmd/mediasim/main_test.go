package main

import (
	"strings"
	"testing"
)

// TestCheckModeRefusesIgnoredFlags: a flag the chosen mode does not read
// is an error naming it, never silently dropped — in both directions.
// The single-simulation case is the regression: `mediasim -objects 50
// -out x.csv -format jsonl -refine 3 -sweep-points 0,1` used to print a
// summary, write no x.csv and say nothing.
func TestCheckModeRefusesIgnoredFlags(t *testing.T) {
	cases := []struct {
		name  string
		sweep bool
		set   []string
		want  []string // flags the error must name; nil = accepted
	}{
		{"single, shared flags only", false, []string{"objects", "requests", "runs", "seed", "parallel", "policy", "cpuprofile"}, nil},
		{"sweep, shared and sweep flags", true, []string{"sweep", "objects", "out", "format", "refine", "sweep-points", "shard", "journal", "resume"}, nil},
		{"single, the reported command", false, []string{"format", "objects", "out", "refine", "requests", "sweep-points"},
			[]string{"-format", "-out", "-refine", "-sweep-points"}},
		{"single, -shard", false, []string{"shard"}, []string{"-shard"}},
		{"single, -journal", false, []string{"journal"}, []string{"-journal"}},
		{"single, -resume", false, []string{"resume"}, []string{"-resume"}},
		{"sweep, single-simulation flags", true, []string{"sweep", "policy", "e", "cache-gb", "alpha", "variability", "estimator", "ewma-alpha", "whole-eviction"},
			[]string{"-policy", "-e", "-cache-gb", "-alpha", "-variability", "-estimator", "-ewma-alpha", "-whole-eviction"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkMode(c.sweep, c.set)
			if c.want == nil {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted %v", c.set)
			}
			for _, name := range c.want {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not name %s", err, name)
				}
			}
			if c.sweep == strings.Contains(err.Error(), "add -sweep") {
				t.Errorf("error %q points the wrong way for sweep=%v", err, c.sweep)
			}
		})
	}
}

// TestModeFlagSetsAreDisjoint: a flag belongs to one mode or to both,
// never to each mode's refusal list.
func TestModeFlagSetsAreDisjoint(t *testing.T) {
	if len(sweepOnlyFlags) != 7 {
		t.Errorf("%d sweep-only flags, want the 7 of sweepConfig", len(sweepOnlyFlags))
	}
	for _, name := range sweepOnlyFlags {
		for _, other := range singleOnlyFlags {
			if name == other {
				t.Errorf("-%s is in both mode lists", name)
			}
		}
	}
}
