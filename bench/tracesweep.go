package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamcache/internal/collect"
	"streamcache/internal/experiments"
	"streamcache/internal/sim"
)

// spanSink wraps a RowSink: one span per call into it, rows counted. It
// forwards through the richest interface the inner sink has, as the
// engine would.
type spanSink struct {
	rec   *recorder
	name  string
	inner experiments.RowSink
	rows  *atomic.Int64
}

func (s *spanSink) timed(call func() error) error {
	sp := &span{Name: s.name, Start: s.rec.now()}
	err := call()
	sp.End = s.rec.now()
	s.rec.add(sp)
	return err
}

func (s *spanSink) Begin(meta experiments.TableMeta) error {
	return s.timed(func() error { return s.inner.Begin(meta) })
}

func (s *spanSink) End() error { return s.timed(s.inner.End) }

func (s *spanSink) Row(row []string) error {
	s.rows.Add(1)
	return s.timed(func() error { return s.inner.Row(row) })
}

func (s *spanSink) MetricRow(m experiments.MetricRow) error {
	s.rows.Add(1)
	return s.timed(func() error {
		switch in := s.inner.(type) {
		case experiments.MetricSink:
			return in.MetricRow(m)
		case experiments.IndexedSink:
			return in.IndexedRow(m.Index, m.Row)
		default:
			return in.Row(m.Row)
		}
	})
}

// spanExchange wraps a shard's metric exchange: one span per lookup of
// a point another shard owns, which is time the shard spends blocked.
type spanExchange struct {
	rec   *recorder
	inner experiments.MetricExchange
	mu    sync.Mutex
	waits []float64 // milliseconds
}

func (x *spanExchange) ForeignMetric(table string, index int) (float64, bool) {
	sp := &span{Name: "collect.foreign_metric", Start: x.rec.now()}
	v, ok := x.inner.ForeignMetric(table, index)
	sp.End = x.rec.now()
	x.rec.add(sp)
	x.mu.Lock()
	x.waits = append(x.waits, float64(sp.End-sp.Start)/1e6)
	x.mu.Unlock()
	return v, ok
}

// conflictCounter wraps the collector's handler: one span per request,
// and 409 answers (a shard told to re-register and replay) counted.
type conflictCounter struct {
	http.ResponseWriter
	conflicts *atomic.Int64
}

func (c conflictCounter) WriteHeader(code int) {
	if code == http.StatusConflict {
		c.conflicts.Add(1)
	}
	c.ResponseWriter.WriteHeader(code)
}

// tracedScale is the sweep workloads' scale with a fifth of the runs per
// point, so the traced pass takes seconds.
func tracedScale(e *env) experiments.Scale {
	s := experiments.PaperScale()
	s.Runs = 2
	if e.quick {
		s = experiments.SmallScale()
	}
	s.Seed = e.seed
	return s
}

// tracedSweep runs the sweep keys through experiments.Stream in this
// process: in one stream at Parallelism 2, or as two shard goroutines
// with journals that push to an in-process collector and exchange
// refinement metrics through it.
func tracedSweep(e *env, o *outcome, rec *recorder, sharded bool) error {
	var rows atomic.Int64
	counters := &experiments.Counters{}
	dir, err := os.MkdirTemp(e.work, "traced-sweep-")
	if err != nil {
		return err
	}
	perKey := map[string]float64{}
	var mu sync.Mutex

	// stream runs every key at scale s into the sink open returns.
	stream := func(s experiments.Scale, open func(key string) (experiments.RowSink, func() error, error)) error {
		for _, key := range sweepKeys {
			sink, done, err := open(key)
			if err != nil {
				return err
			}
			sp := &span{Name: "experiments.stream." + key, Start: rec.now()}
			err = experiments.Stream(key, s, sink)
			sp.End = rec.now()
			rec.add(sp)
			if derr := done(); err == nil {
				err = derr
			}
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			mu.Lock()
			perKey[key] = max(perKey[key], float64(sp.End-sp.Start)/1e9) // the slower shard sets the time
			mu.Unlock()
		}
		return nil
	}

	base := tracedScale(e)
	base.Counters = counters
	if !sharded {
		base.Parallelism = 2
		base.Arena = sim.NewArena()
		err = stream(base, func(key string) (experiments.RowSink, func() error, error) {
			f, err := os.Create(filepath.Join(dir, key+".csv"))
			if err != nil {
				return nil, nil, err
			}
			return &spanSink{rec: rec, name: "experiments.sink.csv", inner: experiments.NewCSVSink(f), rows: &rows}, f.Close, nil
		})
		if err != nil {
			return err
		}
	} else {
		var conflicts atomic.Int64
		srv := collect.NewServer(2)
		inner := srv.Handler()
		hs, addr, err := listen(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			sp := &span{Name: "collect.http" + req.URL.Path, Start: rec.now()}
			inner.ServeHTTP(conflictCounter{w, &conflicts}, req)
			sp.End = rec.now()
			rec.add(sp)
		}))
		if err != nil {
			return err
		}
		defer hs.Close()
		var waits []float64
		var shed int
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := base
				s.Parallelism = 1
				s.Shard = experiments.Shard{Index: i, Count: 2}
				s.Arena = sim.NewArena()
				client := collect.NewClient("http://"+addr, s.Shard, s.RunFingerprint())
				if client.Down() {
					errs[i] = fmt.Errorf("shard %d: in-process collector unreachable", i)
					return
				}
				exchange := &spanExchange{rec: rec, inner: client}
				s.Exchange = exchange
				j, err := experiments.CreateJournal(filepath.Join(dir, fmt.Sprintf("journal%d.jsonl", i)), s.Fingerprint())
				if err != nil {
					errs[i] = err
					return
				}
				errs[i] = stream(s, func(key string) (experiments.RowSink, func() error, error) {
					pushed := &spanSink{rec: rec, name: "collect.sink", inner: client.Sink(key), rows: &rows}
					return experiments.MultiSink{experiments.NewJournalSink(j), pushed}, func() error { return nil }, nil
				})
				if cerr := client.Close(); errs[i] == nil {
					errs[i] = cerr
				}
				if cerr := j.Close(); errs[i] == nil {
					errs[i] = cerr
				}
				mu.Lock()
				waits = append(waits, exchange.waits...)
				shed += client.Shed()
				mu.Unlock()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		select {
		case <-srv.Done():
		case <-time.After(10 * time.Second):
			o.check(false, "in-process collector never saw both shards done")
		}
		o.check(srv.WriteTables(dir) == nil, "in-process collector could not write its tables")
		if len(waits) > 0 {
			sort.Float64s(waits)
			o.values["collect.metric_wait_ms_p50"] = percentile(waits, 50)
		}
		o.values["collect.shed"] = float64(shed)
		o.values["collect.resyncs"] = float64(conflicts.Load())
	}
	for key, seconds := range perKey {
		o.values["experiments."+key+"_s"] = seconds
	}
	o.values["experiments.rows"] = float64(rows.Load())
	o.values["experiments.evaluations"] = float64(counters.Evaluations.Load())
	o.values["experiments.exchange_hits"] = float64(counters.ExchangeHits.Load())
	o.attempted += rows.Load()
	return nil
}
