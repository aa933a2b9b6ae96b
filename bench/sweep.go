package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamcache/internal/experiments"
	"streamcache/internal/workload"
)

// sweepKeys are the experiments both sweep workloads regenerate: the
// fixed-grid figures, both adaptive refinements (the only ones that use
// the metric exchange when sharded) and the hierarchy simulator.
var sweepKeys = []string{"figure5", "figure6", "figure7", "figure9", "refined-e", "refined-esigma", "hierarchy"}

const (
	sweepTables  = 7                 // one CSV per key
	sweepSetups  = 9                 // small passes are cheap; more of them steady setup_s
	sweepTimeout = 150 * time.Second // a sweep that has not ended by then is killed and failed
)

// sweepRun is one execution of the figure path and what it cost.
type sweepRun struct {
	dir            string // where the canonical CSVs are
	wall, cpu, rss float64
	speed          float64 // the host's, relative to the sizing box, while it ran
}

// sweepOnce runs the keys at the named scale, in one figures process or
// split over two shard processes that push to a collectd, and counts
// every process that does not exit 0 in time as a failed operation.
func (e *env) sweepOnce(o *outcome, scale string, sharded bool) (run sweepRun, err error) {
	dir, err := os.MkdirTemp(e.work, "sweep-")
	if err != nil {
		return sweepRun{}, err
	}
	run = sweepRun{dir: filepath.Join(dir, "out")}
	host := startProbe()
	defer func() { run.speed = host.speed() }()
	common := []string{"-scale", scale, "-seed", strconv.FormatInt(e.seed, 10), "-only", strings.Join(sweepKeys, ",")}
	start := time.Now()
	var procs []*child
	if !sharded {
		p, err := e.spawn("figures", append(common, "-parallel", "2", "-out", run.dir)...)
		if err != nil {
			return run, err
		}
		o.check(p.waitExit(sweepTimeout), "figures did not exit 0 (log %s)", p.log)
		procs = []*child{p}
	} else {
		addr, err := freeAddr()
		if err != nil {
			return run, err
		}
		coll, err := e.spawn("collectd", "-addr", addr, "-shards", "2", "-exit-when-done", "-out", run.dir)
		if err != nil {
			return run, err
		}
		if err := awaitReady(coll, "http://"+addr+"/v1/status", readyTimeout); err != nil {
			return run, err
		}
		procs = []*child{coll}
		for i := 0; i < 2; i++ {
			p, err := e.spawn("figures", append(common, "-parallel", "1",
				"-shard", fmt.Sprintf("%d/2", i),
				"-journal", filepath.Join(dir, fmt.Sprintf("journal%d.jsonl", i)),
				"-collect", "http://"+addr,
				"-out", filepath.Join(dir, fmt.Sprintf("shard%d", i)))...)
			if err != nil {
				return run, err
			}
			procs = append(procs, p)
		}
		for _, p := range procs[1:] {
			o.check(p.waitExit(sweepTimeout), "figures shard did not exit 0 (log %s)", p.log)
		}
		// A collectd that never sees both shards done would wait forever.
		o.check(coll.waitExit(30*time.Second), "collectd did not exit 0 after its shards (log %s)", coll.log)
	}
	run.wall = time.Since(start).Seconds()
	for _, p := range procs {
		run.cpu += p.cpuSeconds()
		run.rss += p.peakRSSMB()
	}
	return run, nil
}

// table is one parsed CSV of a sweep.
type table struct {
	file   string
	raw    []byte
	header []string
	rows   [][]string
}

// readTables parses every CSV in dir and counts a missing, unreadable
// or empty table as a failed operation.
func readTables(o *outcome, dir string) []table {
	names, _ := filepath.Glob(filepath.Join(dir, "*.csv")) // the pattern is well-formed
	sort.Strings(names)
	o.check(len(names) == sweepTables, "%d CSV tables in %s, want %d", len(names), dir, sweepTables)
	var tables []table
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			o.check(false, "read table: %v", err)
			continue
		}
		r := csv.NewReader(bytes.NewReader(raw))
		r.Comment = '#'
		recs, err := r.ReadAll()
		ok := err == nil && len(recs) >= 2
		o.check(ok, "table %s: parse error %v or no rows", filepath.Base(name), err)
		if ok {
			tables = append(tables, table{file: filepath.Base(name), raw: raw, header: recs[0], rows: recs[1:]})
		}
	}
	return tables
}

// column returns the named column of t as numbers, nil if t lacks it.
func (t table) column(name string) []float64 {
	for i, h := range t.header {
		if h != name {
			continue
		}
		out := make([]float64, 0, len(t.rows))
		for _, row := range t.rows {
			if v, err := strconv.ParseFloat(row[i], 64); err == nil {
				out = append(out, v)
			}
		}
		return out
	}
	return nil
}

func runSweep(e *env, sharded bool) (*outcome, error) {
	o := newOutcome()
	name, scaleName, scale := "sweep_single", "paper", experiments.PaperScale()
	if sharded {
		name = "sweep_sharded"
	}
	if e.quick {
		scaleName, scale = "small", experiments.SmallScale()
	}

	// Set-up: the work one table row stands for, and a verified small
	// pass through the same processes, several times. The bytes are those
	// of the trace catalogSeed generates, not the run's seed: the sizes
	// are heavy-tailed, and a byte count that moved by 8 % with the seed
	// would show in goodput_mb_s and cpu_s_per_gb as if the sweep had.
	setupStart := time.Now()
	tr, err := workload.Generate(workload.Config{NumObjects: scale.Objects, NumRequests: scale.Requests, Seed: catalogSeed})
	if err != nil {
		return nil, err
	}
	var traceBytes int64
	for _, r := range tr.Requests {
		traceBytes += tr.Objects[r.ObjectID].Size
	}
	nominalSeconds := time.Since(setupStart).Seconds()
	// A small pass lasts a few probe samples, so the passes share one
	// speed: the mean of what the probe saw in each. Only the part of a
	// pass in which its processes computed (their CPU time over the two
	// cores) is scaled by it; the rest is exec, readiness polls and the
	// collector's long-polls, which take as long on a slow host, and
	// scaling those too made a slow hour's set-up read a fifth shorter.
	var setupWall, setupBusy []float64
	var setupSpeed float64
	for i := 0; i < sweepSetups; i++ {
		start := time.Now()
		small, err := e.sweepOnce(o, "small", sharded)
		if err != nil {
			return nil, err
		}
		readTables(o, small.dir)
		wall := time.Since(start).Seconds()
		setupWall, setupBusy = append(setupWall, wall), append(setupBusy, min(wall, small.cpu/conns))
		setupSpeed += small.speed / sweepSetups
	}
	setupS := make([]float64, sweepSetups)
	for i := range setupS {
		setupS[i] = setupWall[i] - setupBusy[i] + setupBusy[i]*setupSpeed
	}

	// Measured: whole sweeps, as many as fit in the time given.
	var runs []sweepRun
	for start := time.Now(); ; {
		r, err := e.sweepOnce(o, scaleName, sharded)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		if time.Since(start).Seconds()+r.wall > e.seconds {
			break
		}
	}
	last := runs[len(runs)-1]
	tables := readTables(o, last.dir)
	if len(tables) == 0 {
		return nil, fmt.Errorf("%s produced no tables", name)
	}

	if sharded {
		// The collector's tables must be the single process's, byte for byte.
		ref, err := e.sweepOnce(o, scaleName, false)
		if err != nil {
			return nil, err
		}
		for _, t := range tables {
			want, err := os.ReadFile(filepath.Join(ref.dir, t.file))
			o.check(err == nil && bytes.Equal(want, t.raw), "table %s differs from the single-process sweep's", t.file)
		}
	}

	// One row is one sweep point: Runs simulated replays of a trace of
	// Requests requests. That is the work behind the rates below; both
	// counts are nominal (refinement candidates that did not become rows,
	// and the sizes of the traces really replayed, are not in them).
	var rows int
	var delays, originFrac []float64
	for _, t := range tables {
		rows += len(t.rows)
		delays = append(delays, t.column("avg_delay_s")...)
		originFrac = append(originFrac, t.column("origin_byte_frac")...)
		fmt.Printf("   %s sha256 %x rows %d\n", t.file, sha256.Sum256(t.raw), len(t.rows))
	}
	if len(delays) == 0 || len(originFrac) == 0 {
		return nil, fmt.Errorf("%s: tables lack avg_delay_s or origin_byte_frac", name)
	}
	simRequests := float64(rows) * float64(scale.Runs) * float64(scale.Requests)
	simBytes := float64(rows) * float64(scale.Runs) * float64(traceBytes)
	var wall, cpu, rss []float64
	for _, r := range runs {
		// What the sweep would have taken on the sizing box in a quiet phase.
		wall, cpu, rss = append(wall, r.wall*r.speed), append(cpu, r.cpu*r.speed), append(rss, r.rss)
	}
	w, c := median(wall), median(cpu)
	fmt.Printf("   %s: %d sweep(s) of %d rows, %.4g simulated requests\n", name, len(runs), rows, simRequests)
	for _, r := range runs {
		fmt.Printf("   %s: unscaled: wall %.3f s, CPU %.3f s; host speed %.3f of the sizing box\n", name, r.wall, r.cpu, r.speed)
	}

	o.values["sweep_wall_s"] = w
	o.values["sweep_cpu_s"] = c
	o.values["peak_rss_mb"] = median(rss)
	o.values["setup_s"] = nominalSeconds + median(setupS)
	fmt.Printf("   %s: unscaled: trace sizing %.3f s, small pass %.3f s of which %.3f s computing (medians of %d); host speed %.3f then\n",
		name, nominalSeconds, median(setupWall), median(setupBusy), sweepSetups, setupSpeed)
	// Host-time rates of simulated work: the simulator's analogue of the
	// live workloads' delivery rates.
	o.values["req_per_s"] = simRequests / w
	o.values["goodput_mb_s"] = simBytes / 1e6 / w
	o.values["cpu_us_per_req"] = c * 1e6 / simRequests
	o.values["cpu_s_per_gb"] = c / (simBytes / 1e9)
	// Simulated statistics, exact for a seed: the paper's startup delay
	// over every sweep point, and the hierarchy's origin byte share.
	sort.Float64s(delays)
	o.values["ttfb_p50_us"] = percentile(delays, 50) * 1e6
	var sum float64
	for _, f := range originFrac {
		sum += f
	}
	o.values["origin_byte_frac"] = sum / float64(len(originFrac))
	return o, nil
}
