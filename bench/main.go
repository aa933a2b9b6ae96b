// Command bench is the repository's benchmark: it drives the real
// proxyd, figures and collectd binaries over loopback TCP from this one
// process with two client connections, checks what they return, and
// prints the end-to-end metrics of BENCHMARK.json; with -trace 1 it
// instead assembles the same layers in-process and prints the per-layer
// metrics. See README.md for what each workload and metric is for.
//
// It is run through run.sh, which builds the binaries first:
//
//	bash bench/run.sh --workload hit_small --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -repeat 2        # every workload twice, A-vs-A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds a single-workload run.
const runDeadline = 170 * time.Second

// metricDef names one metric; bound is the share of the parent's median
// by which an end-to-end metric may worsen (0 for per-layer metrics).
// BENCHMARK.json carries the same table and bench_test.go keeps the two
// equal.
type metricDef struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
	bound  float64
}

var endToEnd = []metricDef{
	{"goodput_mb_s", "MB/s", true, 0.25},
	{"req_per_s", "1/s", true, 0.25},
	{"ttfb_p50_us", "us", false, 0.25},
	{"cpu_s_per_gb", "s/GB", false, 0.25},
	{"cpu_us_per_req", "us", false, 0.25},
	{"origin_byte_frac", "ratio", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.25},
	{"sweep_wall_s", "s", false, 0.25},
	{"sweep_cpu_s", "s", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// workloadDef is one entry of BENCHMARK.json's workloads.
type workloadDef struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workloadDef{
	{"hit_small", func(e *env) (*outcome, error) { return runLive(e, hitSmall(e)) }},
	{"hit_large", func(e *env) (*outcome, error) { return runLive(e, hitLarge(e)) }},
	{"miss_churn", func(e *env) (*outcome, error) { return runLive(e, missChurn(e)) }},
	{"cluster_hop", func(e *env) (*outcome, error) { return runLive(e, clusterHop(e)) }},
	{"sweep_single", func(e *env) (*outcome, error) { return runSweep(e, false) }},
	{"sweep_sharded", func(e *env) (*outcome, error) { return runSweep(e, true) }},
}

// outcome is what one run of one workload produced.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string // one line per failed operation, printed before the result
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check counts one operation and records why it failed, if it did.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
}

// result is the last line of standard output, as the driver reads it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) result(defs []metricDef) (result, error) {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s: no finite value (%v)", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

func (o *outcome) print(title string, defs []metricDef) {
	fmt.Printf("-- %s: ops_attempted=%d ops_failed=%d\n", title, o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Printf("   FAILED: %s\n", p)
	}
	for _, d := range defs {
		fmt.Printf("   %-34s %16.6g %s\n", d.name, o.values[d.name], d.unit)
	}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all six, then the traced pass)")
		seed     = flag.Int64("seed", 1, "seed of the catalogs, the request order and the sweeps")
		seconds  = flag.Float64("seconds", 12, "measured seconds per live workload (4 windows, each on a fresh boot); sweeps repeat while they fit")
		trace    = flag.Int("trace", 0, "1 = traced in-process pass printing the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, also write the spans to this JSON Lines file")
		bin      = flag.String("bin", ".bench_build/bin", "directory of the proxyd, figures and collectd binaries")
		work     = flag.String("work", ".bench_build", "directory under which a private scratch directory is made")
		quick    = flag.Bool("quick", false, "tiny catalogs and small-scale sweeps (smoke test; numbers mean nothing)")
		repeat   = flag.Int("repeat", 1, "with no -workload: run the whole set this many times and compare the sets")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		return 2
	}

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	binDir, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	e := &env{bin: binDir, work: scratch, seed: *seed, seconds: *seconds, quick: *quick}
	defer e.cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		e.cleanup()
		os.Exit(1)
	}()

	if *workload != "" {
		// The driver allows one run 180 seconds; a hang anywhere must not
		// outlive that with children still running.
		time.AfterFunc(runDeadline, func() {
			fmt.Fprintln(os.Stderr, "bench: run exceeded", runDeadline)
			e.cleanup()
			os.Exit(1)
		})
	}

	fmt.Printf("bench: seed=%d seconds=%g quick=%v; closed loop, one driver process, %d client connections; loopback TCP, not a real link\n",
		*seed, *seconds, *quick, conns)

	var code int
	switch {
	case *workload == "":
		code = runAll(e, *repeat, *traceOut)
	case *trace == 1:
		code = runOne(*workload, func() (*outcome, error) { return runTraced(e, *workload, *traceOut) }, perLayer)
	default:
		code = runOne(*workload, func() (*outcome, error) {
			w, ok := workloadByName(*workload)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", *workload)
			}
			return w.run(e)
		}, endToEnd)
	}
	return code
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOne runs a single pass and prints the driver's result line last.
func runOne(name string, pass func() (*outcome, error), defs []metricDef) int {
	o, err := pass()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	o.print(name, defs)
	r, err := o.result(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runAll is the by-hand mode: every workload, then the traced pass of
// each; with repeat > 1 the whole set again, and each end-to-end metric's
// relative spread across the sets against its bound.
func runAll(e *env, repeat int, traceOut string) int {
	code := 0
	sets := make([]map[string]*outcome, repeat)
	for s := range sets {
		sets[s] = map[string]*outcome{}
		for _, w := range workloads {
			o, err := w.run(e)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			o.print(fmt.Sprintf("set %d %s", s+1, w.name), endToEnd)
			if o.failed > 0 {
				code = 1
			}
			sets[s][w.name] = o
		}
	}
	for _, w := range workloads {
		o, err := runTraced(e, w.name, traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: traced %s: %v\n", w.name, err)
			return 1
		}
		o.print("traced "+w.name, perLayer)
		if o.failed > 0 {
			code = 1
		}
	}
	if repeat < 2 {
		return code
	}
	fmt.Printf("-- A-vs-A over %d sets: (max-min)/median per end-to-end metric, against its bound\n", repeat)
	for _, w := range workloads {
		for _, d := range endToEnd {
			vals := make([]float64, repeat)
			for s := range sets {
				vals[s] = sets[s][w.name].values[d.name]
			}
			sort.Float64s(vals)
			spread := (vals[len(vals)-1] - vals[0]) / median(vals)
			verdict := "ok"
			if spread > d.bound {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("   %-14s %-18s spread %.4f bound %.2f %s\n", w.name, d.name, spread, d.bound, verdict)
		}
	}
	return code
}

// median of vals; sorts its argument.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
