// Command mediavet runs the repo's custom static analyzer (shardlock —
// see internal/analysis).
//
//	go run ./cmd/mediavet [-C dir] [-v] [packages...]
//
// Exit status: 0 clean, 1 operational error, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"streamcache/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mediavet", flag.ContinueOnError)
	dir := fs.String("C", "", "change to `dir` before analyzing (module root)")
	verbose := fs.Bool("v", false, "log per-package progress to stderr")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	r := &analysis.Runner{Dir: *dir, Patterns: fs.Args()}
	if *verbose {
		r.Log = os.Stderr
	}
	findings, err := r.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mediavet: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Printf("%s\n", f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
