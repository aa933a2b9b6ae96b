// Command tracegen synthesizes a Squid-format proxy access log whose
// missed-request throughput follows the reconstructed NLANR bandwidth
// model (see DESIGN.md, Substitutions). Feed the output to traceanalyze
// to reproduce the Figure 2-3 analysis pipeline.
//
//	tracegen -entries 100000 -servers 1000 -variability nlanr -o access.log
package main

import (
	"flag"
	"fmt"
	"os"

	"streamcache/internal/bandwidth"
	"streamcache/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		entries     = flag.Int("entries", 100000, "log lines to generate")
		servers     = flag.Int("servers", 1000, "distinct origin servers (paths)")
		variability = flag.String("variability", "nlanr", "per-request bandwidth variability: none, nlanr, measured, inria, fareast")
		hitFrac     = flag.Float64("hit-fraction", 0.2, "fraction of TCP_HIT lines")
		smallFrac   = flag.Float64("small-fraction", 0.3, "fraction of sub-200KB objects")
		seed        = flag.Int64("seed", 1, "random seed")
		out         = flag.String("o", "-", "output file (- for stdout)")
	)
	flag.Parse()

	variation, err := bandwidth.VariabilityByName(*variability)
	if err != nil {
		return err
	}

	log, err := trace.Generate(trace.GenConfig{
		Entries:       *entries,
		Servers:       *servers,
		Variation:     variation,
		HitFraction:   *hitFrac,
		SmallFraction: *smallFrac,
		Seed:          *seed,
	})
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return trace.Write(w, log)
}
