// Command figures regenerates every table and figure of the paper's
// evaluation as CSV files, one per experiment, plus an index. Rows are
// streamed to disk as sweep points complete (flushed row by row, in
// deterministic order), so long paper-scale sweeps can be tailed and
// plotted while they run.
//
//	figures -out results/            # fast small-scale run
//	figures -out results/ -scale paper -only figure5,figure9
//	figures -out results/ -jsonl -refine 8
//
// Sweeps distribute across processes and survive interruption (see
// OPERATIONS.md): each shard writes its rows to its checkpoint journal
// and nowhere else, and -merge reassembles the canonical files from the
// journals afterwards, byte-identical to a single-process run.
//
//	figures -shard 0/2 -journal j0.jsonl                 # machine A
//	figures -shard 1/2 -journal j1.jsonl                 # machine B
//	figures -shard 1/2 -journal j1.jsonl -resume         # after a crash
//	figures -out results/ -merge j0.jsonl j1.jsonl       # combine
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"streamcache/internal/collect"
	"streamcache/internal/experiments"
	"streamcache/internal/profile"
	"streamcache/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	begin := time.Now()
	var (
		out         = flag.String("out", "results", "output directory")
		scale       = flag.String("scale", "small", "experiment scale: small or paper")
		only        = flag.String("only", "", "comma-separated experiment keys (default: all)")
		seed        = flag.Int64("seed", 1, "base random seed")
		parallel    = flag.Int("parallel", 0, "worker goroutines per sweep (0 = GOMAXPROCS); tables are identical for any value")
		refine      = flag.Int("refine", -1, "extra adaptive points per refined sweep (-1 = scale default)")
		jsonl       = flag.Bool("jsonl", false, "also stream each experiment as JSON Lines next to its CSV")
		shard       = flag.String("shard", "", "compute only this shard of every sweep, as index/count (e.g. 0/2); the rows go to -journal only, which -merge reads")
		journal     = flag.String("journal", "", "checkpoint completed rows, and an end record after each table, to this JSONL journal; a fresh one must not hold records")
		resume      = flag.Bool("resume", false, "continue the -journal of an interrupted run instead of starting a fresh one: rows it holds are replayed, not recomputed, and it is first rewritten to one line per completed row")
		merge       = flag.Bool("merge", false, "merge the shard journals named as arguments (after every flag) into canonical CSV (and -jsonl) files in -out, then exit")
		collectURL  = flag.String("collect", "", "push rows and refinement metrics to this collector URL (see cmd/collectd); sharded refinement then simulates only owned points per round")
		knee        = flag.String("knee", "", "locate the SLO knee in this live-capacity CSV (from loadgen -mode open), print it, then exit")
		kneeFrac    = flag.Float64("knee-threshold", 0.1, "SLO-violation fraction that defines the knee for -knee")
		overlayLive = flag.String("overlay-live", "", "live CSV (loadgen output) to overlay against -overlay-sim, then exit")
		overlaySim  = flag.String("overlay-sim", "", "sim sweep CSV to overlay against -overlay-live")
		overlayOut  = flag.String("overlay-out", "-", "overlay CSV destination ('-' = stdout)")
		cpuprof     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof     = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profile.Start(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *knee != "" {
		return reportKnee(*knee, *kneeFrac)
	}
	if *overlayLive != "" || *overlaySim != "" {
		if *overlayLive == "" || *overlaySim == "" {
			return fmt.Errorf("-overlay-live and -overlay-sim go together")
		}
		return writeOverlay(*overlayLive, *overlaySim, *overlayOut)
	}
	if *merge {
		return mergeJournals(*out, flag.Args(), *jsonl)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (only -merge takes journals)", flag.Args())
	}
	if *resume && *journal == "" {
		return fmt.Errorf("-resume needs -journal to name the checkpoint file")
	}

	var s experiments.Scale
	switch *scale {
	case "small":
		s = experiments.SmallScale()
	case "paper":
		s = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (want small or paper)", *scale)
	}
	s.Seed = *seed
	s.Parallelism = *parallel
	if *refine >= 0 {
		s.RefineBudget = *refine
	}
	sh, err := experiments.ParseShard(*shard)
	if err != nil {
		return err
	}
	s.Shard = sh
	if sh.Count > 1 && *journal == "" {
		return fmt.Errorf("-shard %s needs -journal: a shard's journal is its output, which -merge reads", sh)
	}
	// One arena for the whole figure set: the sizing workload, the
	// replay tapes and the Figures 2-3 synthetic logs are shared across
	// experiments, so each is compiled once per distinct config instead
	// of once per experiment. Rows are bit-identical either way.
	s.Arena = sim.NewArena()

	exps := experiments.Experiments()
	known := map[string]bool{}
	keys := make([]string, 0, len(exps))
	for _, e := range exps {
		known[e.Key] = true
		keys = append(keys, e.Key)
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if k == "" { // tolerate trailing/doubled commas
				continue
			}
			if !known[k] {
				return fmt.Errorf("unknown experiment key %q (known: %s)", k, strings.Join(keys, ", "))
			}
			selected[k] = true
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	// A shard's closing line: its wall time and CPU, and how much of the
	// wall it sat waiting for its peers' metrics. Deferred before the
	// collector's Close, so it runs after it: the wall includes the push
	// log's drain.
	var waited time.Duration
	peered := *shard != "" || *collectURL != ""
	if peered {
		defer func() {
			if err == nil {
				fmt.Printf("shard %s wall=%v cpu=%v waited=%v\n", s.Shard, time.Since(begin).Round(time.Millisecond),
					cpuTime().Round(time.Millisecond), waited.Round(time.Millisecond))
			}
		}()
	}

	var collector *collect.Client
	if *collectURL != "" {
		collector = collect.NewClient(*collectURL, s.Shard, s.RunFingerprint())
		if collector.Down() {
			// Degraded but correct: every point evaluates locally and the
			// journal/merge workflow still reassembles the run.
			fmt.Fprintf(os.Stderr, "figures: collector %s unreachable; continuing without it (journal and -merge still work)\n", *collectURL)
			collector = nil
		} else {
			s.Exchange = collector
			defer func() {
				if err := collector.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "figures:", err)
				}
			}()
		}
	}

	if *journal != "" {
		open := experiments.CreateJournal
		if *resume {
			open = experiments.ResumeJournal
		}
		if s.Journal, err = open(*journal, s.Fingerprint()); err != nil {
			return err
		}
		defer s.Journal.Close()
	}

	var tables []experiments.Experiment
	var tableKeys []string
	for _, e := range exps {
		if len(selected) == 0 || selected[e.Key] {
			tables, tableKeys = append(tables, e), append(tableKeys, e.Key)
		}
	}
	// Every table's points up front: the first group call that meets a
	// group scores the rows later tables hold too, and they take the
	// finished metrics. Rows are identical either way.
	if err := experiments.Declare(s, tableKeys...); err != nil {
		return err
	}
	if s.Shard.Count > 1 {
		// The set-wide deal this shard owns its units by: a shard whose
		// weight is far from its peers' shows here, before any table runs.
		d, err := s.Deal()
		if err != nil {
			return err
		}
		fmt.Printf("shard %s owns %d of %d units, weight %d of %d\n", s.Shard, d.Units, d.SetUnits, d.Weight, d.SetWeight)
	}

	var index strings.Builder
	fmt.Fprintf(&index, "# Regenerated %s at scale=%s seed=%d shard=%s\n",
		time.Now().Format(time.RFC3339), *scale, *seed, s.Shard)
	for _, e := range tables {
		start, cpu := time.Now(), cpuTime()
		s.Counters = &experiments.Counters{} // per table
		passes0, fallbacks0, shared0, reused0 := s.Arena.Groups()
		ranks0 := s.Arena.Ranks()
		name, rows, err := streamExperiment(e, s, collector, *out, *jsonl)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Key, err)
		}
		fmt.Printf("%-20s %-45s %5d rows  %v", e.Key, e.File, rows, time.Since(start).Round(time.Millisecond))
		if peered {
			// What this process simulated itself, what it took from its
			// peers, and how long it sat waiting for them.
			wait := time.Duration(s.Counters.ExchangeWaitNanos.Load())
			waited += wait
			fmt.Printf("  evals=%d exchange=%d waited=%v",
				s.Counters.Evaluations.Load(), s.Counters.ExchangeHits.Load(), wait.Round(time.Millisecond))
		}
		// What the arena's group calls did for the table (sim.Arena.Groups,
		// Ranks): groups of cache sizes scored in one tape pass, run seeds
		// that replayed once per capacity instead, points that shared
		// another point's cache replay, points another table's group call
		// scored and the utility sorts the passes made.
		passes, fallbacks, shared, reused := s.Arena.Groups()
		fmt.Printf("  passes=%d fallbacks=%d shared=%d reused=%d ranks=%d", passes-passes0,
			fallbacks-fallbacks0, shared-shared0, reused-reused0, s.Arena.Ranks()-ranks0)
		// The process's CPU time over the table (tables run one after
		// another) and the tapes and columns the arena still holds. A
		// script reads the fields up to evals= by position
		// (collector-check); the rest are read by name.
		tapes, cols := s.Arena.Live()
		fmt.Printf("  cpu=%v live=%d/%d", (cpuTime() - cpu).Round(time.Millisecond), tapes, cols)
		fmt.Println()
		fmt.Fprintf(&index, "%s: %s (%d rows) - %s\n", e.Key, e.File, rows, name)
	}
	if s.Shard.Count > 1 {
		return nil // the journal is the shard's output; -merge writes the files
	}
	return os.WriteFile(filepath.Join(*out, "INDEX.txt"), []byte(index.String()), 0o644)
}

// cpuTime is the process's user+sys CPU time so far (0 where getrusage
// fails).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reportKnee reads a live-capacity table (loadgen -mode open output)
// and prints the first ramp level whose SLO-violation fraction crosses
// the threshold — the proxy's measured capacity knee.
func reportKnee(path string, threshold float64) error {
	t, err := experiments.ReadCSVFile(path)
	if err != nil {
		return err
	}
	col := func(name string) int {
		for i, h := range t.Header {
			if h == name {
				return i
			}
		}
		return -1
	}
	offered, frac := col("offered_rps"), col("slo_violation_frac")
	if frac < 0 {
		return fmt.Errorf("%s: no slo_violation_frac column (not a live-capacity table?)", path)
	}
	knee := experiments.FindKnee(t, threshold)
	if knee < 0 {
		fmt.Printf("no knee: slo_violation_frac never exceeds %g across %d levels\n", threshold, len(t.Rows))
		return nil
	}
	row := t.Rows[knee]
	if offered >= 0 && offered < len(row) {
		fmt.Printf("knee at level %d: offered %s req/s, slo_violation_frac %s (threshold %g)\n",
			knee, row[offered], row[frac], threshold)
	} else {
		fmt.Printf("knee at level %d: slo_violation_frac %s (threshold %g)\n", knee, row[frac], threshold)
	}
	// The rows before and after the knee bracket the capacity estimate;
	// echo them so the operator sees the crossing context.
	for i := knee - 1; i <= knee+1 && i < len(t.Rows); i++ {
		if i < 0 {
			continue
		}
		fmt.Printf("  level %d: %s\n", i, strings.Join(t.Rows[i], ","))
	}
	return nil
}

// writeOverlay joins a live measurement CSV with a sim sweep CSV on
// their shared column names and renders the source-tagged overlay
// table — the one-file input for live-vs-sim cross-validation plots.
func writeOverlay(livePath, simPath, outPath string) error {
	live, err := experiments.ReadCSVFile(livePath)
	if err != nil {
		return err
	}
	sim, err := experiments.ReadCSVFile(simPath)
	if err != nil {
		return err
	}
	overlay, err := experiments.OverlayTables(live, sim)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return overlay.Stream(experiments.NewCSVSink(w))
}

// tally records the table name and counts the rows flowing past it,
// for the index file, without rendering them. It rides inside the
// MultiSink (not around it), so the engine still sees the index-aware
// sinks beside it.
type tally struct {
	name string
	rows int
}

func (t *tally) Begin(meta experiments.TableMeta) error {
	t.name = meta.Name
	return nil
}
func (t *tally) Row([]string) error { t.rows++; return nil }
func (t *tally) End() error         { return nil }

// streamExperiment streams one experiment — to its canonical CSV (plus
// an optional sibling .jsonl) under dir when unsharded, and to nothing
// but the journal (s.Journal, which the engine writes) and the collector
// when sharded — pushing rows to the collector when one is connected,
// and returns the table name and the row count this process emitted.
func streamExperiment(e experiments.Experiment, s experiments.Scale,
	collector *collect.Client, dir string, jsonl bool) (string, int, error) {

	stem := strings.TrimSuffix(e.File, ".csv")
	seen := &tally{}
	sink := experiments.MultiSink{seen}
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	create := func(ext string) (io.Writer, error) {
		f, err := os.Create(filepath.Join(dir, stem+ext))
		files = append(files, f)
		return f, err
	}
	if s.Shard.Count <= 1 {
		w, err := create(".csv")
		if err != nil {
			return "", 0, err
		}
		sink = append(sink, experiments.NewCSVSink(w))
		if jsonl {
			if w, err = create(".jsonl"); err != nil {
				return "", 0, err
			}
			sink = append(sink, experiments.NewJSONLSink(w))
		}
	}
	if collector != nil {
		sink = append(sink, collector.Sink(stem))
	}

	if err := e.Stream(s, sink); err != nil {
		return "", 0, err
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return "", 0, err
		}
	}
	return seen.name, seen.rows, nil
}

// mergeJournals folds the journals of a sharded run into one canonical
// CSV (and, with jsonl, JSONL) file per table under dir, byte-identical
// to a single-process run's; experiments.MergeJournals refuses a set of
// journals that is not one whole run.
func mergeJournals(dir string, paths []string, jsonl bool) error {
	tables, err := experiments.MergeJournals(paths)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		if err := experiments.WriteTable(dir, t, jsonl); err != nil {
			return fmt.Errorf("merge: %w", err)
		}
		fmt.Printf("merged %-45s %5d rows from %d journals\n", t.File+".csv", t.Len(), len(paths))
	}
	return nil
}
