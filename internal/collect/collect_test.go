package collect

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"streamcache/internal/experiments"
	"streamcache/internal/rowlog"
)

// tinyScale mirrors the experiments package's test scale: fast, but
// exercising every code path including adaptive refinement.
func tinyScale() experiments.Scale {
	return experiments.Scale{
		Objects:        100,
		Requests:       2000,
		Runs:           1,
		Seed:           1,
		CacheFractions: []float64{0.02, 0.1},
		AlphaSweep:     []float64{0.5, 1.0},
		ESweep:         []float64{0, 0.5, 1},
		TraceEntries:   3000,
		TraceServers:   50,
		RefineBudget:   3,
	}
}

// testKeys are the experiments the collector tests run: one fixed grid
// and one adaptive refinement (the case the exchange exists for).
var testKeys = []string{"figure5", "refined-e"}

// fileStem gives each test table a stable output stem.
func fileStem(key string) string { return "out_" + key }

// singleProcessCSV streams key unsharded and returns the canonical CSV
// bytes — the byte-identity reference for everything below.
func singleProcessCSV(t *testing.T, key string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := experiments.Stream(key, tinyScale(), experiments.NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runShard streams the experiments keys as one shard pushing to the
// collector at base, journaling to journalPath (resuming if asked), and
// returns the shard's evaluation counter. extraSink, when non-nil, is
// composed into every experiment's fan-out (tests inject crashes
// through it).
func runShard(t *testing.T, base string, keys []string, shard experiments.Shard, journalPath string,
	resume bool, metricWait time.Duration, extraSink experiments.RowSink) (evals int64, runErr error) {
	t.Helper()
	s := tinyScale()
	s.Shard = shard
	s.Counters = &experiments.Counters{}
	client := NewClient(base, shard, s.RunFingerprint())
	client.metricWait = metricWait
	s.Exchange = client

	var j *experiments.Journal
	var err error
	if resume {
		j, err = experiments.ResumeJournal(journalPath, s.Fingerprint())
	} else {
		j, err = experiments.CreateJournal(journalPath, s.Fingerprint())
	}
	if err != nil {
		t.Fatal(err)
	}
	s.Journal = j
	for _, key := range keys {
		sink := experiments.MultiSink{client.Sink(fileStem(key))}
		if extraSink != nil {
			sink = append(sink, extraSink)
		}
		if err := experiments.Stream(key, s, sink); err != nil {
			runErr = err
			break
		}
	}
	j.Close()
	if err := client.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return s.Counters.Evaluations.Load(), runErr
}

// collectedCSV reads the CSV the collector wrote for key.
func collectedCSV(t *testing.T, dir, key string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, fileStem(key)+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCollectedByteIdenticalAndSplitWork is the collector acceptance
// contract: two shards pushing to one collector produce canonical CSVs
// byte-identical to a single-process run, while each shard simulates
// only its owned points of the refinement rounds.
func TestCollectedByteIdenticalAndSplitWork(t *testing.T) {
	srv := NewServer(2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	evals := make([]int64, 2)
	for idx := 0; idx < 2; idx++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			dir := t.TempDir()
			n, err := runShard(t, ts.URL, testKeys, experiments.Shard{Index: idx, Count: 2},
				filepath.Join(dir, "j.jsonl"), false, 15*time.Second, nil)
			if err != nil {
				t.Errorf("shard %d: %v", idx, err)
			}
			evals[idx] = n
		}(idx)
	}
	wg.Wait()

	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("collector never saw both shards done")
	}
	out := t.TempDir()
	if err := srv.WriteTables(out); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, key := range testKeys {
		want := singleProcessCSV(t, key)
		got := collectedCSV(t, out, key)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: collected CSV differs from single-process run:\n%s\nwant:\n%s", key, got, want)
		}
	}
	// Work-splitting: the two shards together simulate each point once,
	// each exactly the points it owns. A shard owns whole families,
	// dealt over the whole figure set: figure5's IF rows (two cache
	// sizes) are shard 0's, its PB and IB rows, one family, shard 1's;
	// refined-e's coarse round holds figure9's keys and follows their
	// family to shard 1, and its three refinement points, at new e,
	// alternate from index 3.
	total = evals[0] + evals[1]
	if evals[0] != 2+1 || evals[1] != 4+5 {
		t.Errorf("shards simulated %d and %d points; want 2+1 and 4+5 (figure5's and refined-e's they own)", evals[0], evals[1])
	}
	// The split is balanced over the whole set, not over these two
	// tables: the shards' dealt weights partition the set's.
	var dealt int64
	for idx := 0; idx < 2; idx++ {
		s := tinyScale()
		s.Shard = experiments.Shard{Index: idx, Count: 2}
		share, err := s.Deal()
		if err != nil {
			t.Fatal(err)
		}
		if share.Units == 0 || share.Weight <= 0 {
			t.Errorf("shard %d/2 was dealt %+v", idx, share)
		}
		if dealt += share.Weight; idx == 1 && dealt != share.SetWeight {
			t.Errorf("the shards were dealt weights summing to %d, want the set's %d", dealt, share.SetWeight)
		}
	}

	// The unsharded reference count comes from a counter-equipped run.
	s := tinyScale()
	s.Counters = &experiments.Counters{}
	for _, key := range testKeys {
		var null bytes.Buffer
		if err := experiments.Stream(key, s, experiments.NewJSONLSink(&null)); err != nil {
			t.Fatal(err)
		}
	}
	if want := s.Counters.Evaluations.Load(); total != want {
		t.Errorf("sharded run simulated %d points in total, want exactly the unsharded %d", total, want)
	}
}

// TestCollectorDownAtStart: shards started against a dead collector run
// journal-only — the client goes down, every point is evaluated
// locally, and the per-shard journals still merge to the canonical
// stream.
func TestCollectorDownAtStart(t *testing.T) {
	// A port nothing listens on: a started-then-closed test server.
	dead := httptest.NewServer(http.NotFoundHandler())
	base := dead.URL
	dead.Close()

	key := "refined-e"
	var want bytes.Buffer
	if err := experiments.Stream(key, tinyScale(), experiments.NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	outs := make([]bytes.Buffer, 2)
	for idx := 0; idx < 2; idx++ {
		sh := experiments.Shard{Index: idx, Count: 2}
		s := tinyScale()
		s.Shard = sh
		client := NewClient(base, sh, s.RunFingerprint())
		if !client.Down() {
			t.Fatal("client connected to a dead collector")
		}
		s.Exchange = client
		j, err := experiments.CreateJournal(filepath.Join(dir, fmt.Sprintf("j%d.jsonl", idx)), s.Fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		s.Journal = j
		sink := experiments.MultiSink{client.Sink(fileStem(key)), experiments.NewJSONLSink(&outs[idx])}
		if err := experiments.Stream(key, s, sink); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if err := client.Close(); err != nil {
			t.Errorf("down client Close: %v", err)
		}
	}

	var got bytes.Buffer
	if err := experiments.MergeShards(
		[]io.Reader{bytes.NewReader(outs[0].Bytes()), bytes.NewReader(outs[1].Bytes())},
		experiments.NewCSVSink(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("journal-only fallback merge differs from the unsharded stream")
	}
}

// crashSink injects a mid-sweep death: it fails the stream after
// letting a fixed number of rows through.
type crashSink struct {
	allow int
	seen  int
}

var errCrash = errors.New("injected crash")

func (c *crashSink) Begin(experiments.TableMeta) error { return nil }
func (c *crashSink) End() error                        { return nil }
func (c *crashSink) Row([]string) error {
	c.seen++
	if c.seen > c.allow {
		return errCrash
	}
	return nil
}

// TestShardDiesMidPushAndResumes: a shard killed mid-sweep (after some
// rows were already pushed) restarts, re-registers, and replays; the
// collector ends with every row exactly once and the CSVs stay
// byte-identical. The push-session reset plus (table, index) dedupe is
// what makes the whole-log replay safe. The shard that dies is shard
// 1, which owns most of these tables' rows (figure5's PB and IB family,
// both coarse rounds). refined-esigma runs on its own too, its shard 1
// dying inside the second of its three groups of one e.
func TestShardDiesMidPushAndResumes(t *testing.T) {
	for _, tc := range []struct {
		keys  []string
		allow int // rows shard 1 emits before it dies
	}{
		{testKeys, 5},
		{[]string{"refined-esigma"}, 4},
	} {
		t.Run(strings.Join(tc.keys, ","), func(t *testing.T) {
			srv := NewServer(2)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			dir := t.TempDir()
			j1 := filepath.Join(dir, "j1.jsonl")

			// Shard 1 dies after tc.allow rows. The partial push log
			// drains on Close (which reports the aborted sweep's
			// remainder as the stream error we injected, not a client
			// failure). The shards here run sequentially, so
			// foreign-metric polls against the not-yet-run peer must
			// time out fast and fall back locally.
			const wait = 300 * time.Millisecond
			if _, err := runShard(t, ts.URL, tc.keys, experiments.Shard{Index: 1, Count: 2}, j1, false,
				wait, &crashSink{allow: tc.allow}); !errors.Is(err, errCrash) {
				t.Fatalf("crashed shard run returned %v, want the injected crash", err)
			}

			// Shard 0 runs to completion meanwhile.
			if _, err := runShard(t, ts.URL, tc.keys, experiments.Shard{Index: 0, Count: 2},
				filepath.Join(dir, "j0.jsonl"), false, wait, nil); err != nil {
				t.Fatalf("shard 0: %v", err)
			}

			// Shard 1 restarts with -resume: journal replay re-emits the
			// completed prefix through the sinks (repopulating the push
			// log from index zero), the fresh hello resets the push
			// session, and the dedupe absorbs the overlap.
			if _, err := runShard(t, ts.URL, tc.keys, experiments.Shard{Index: 1, Count: 2}, j1, true, wait, nil); err != nil {
				t.Fatalf("resumed shard 1: %v", err)
			}

			select {
			case <-srv.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("collector never saw both shards done")
			}
			out := t.TempDir()
			if err := srv.WriteTables(out); err != nil {
				t.Fatal(err)
			}
			for _, key := range tc.keys {
				want := singleProcessCSV(t, key)
				got := collectedCSV(t, out, key)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: CSV after crash+resume differs from single-process run:\n%s\nwant:\n%s", key, got, want)
				}
			}
		})
	}
}

// TestSlowCollectorDoesNotBlockWorkers: with a collector that stalls on
// every push, sink appends must stay non-blocking — the bounded backlog
// sheds to the journal instead. WriteTables then refuses the gapped
// table rather than writing a silently truncated CSV.
func TestSlowCollectorDoesNotBlockWorkers(t *testing.T) {
	srv := NewServer(1)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/push" {
			time.Sleep(300 * time.Millisecond)
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(slow)
	defer ts.Close()

	sh := experiments.Shard{Index: 0, Count: 1}
	client := NewClient(ts.URL, sh, "fp")
	client.maxBacklog = 8
	client.drainWait = 100 * time.Millisecond
	sink := client.Sink("slow")
	if err := sink.Begin(experiments.TableMeta{Name: "slow", Header: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	const rows = 500
	start := time.Now()
	for i := 0; i < rows; i++ {
		if err := sink.Row([]string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 500 appends against a collector that takes 300ms per push: if
	// appends blocked on the network this would take minutes.
	if elapsed > 2*time.Second {
		t.Fatalf("appends took %v; the push path is blocking simulation workers", elapsed)
	}
	if client.Shed() == 0 {
		t.Error("bounded backlog never shed against a stalled collector")
	}
	if err := client.Close(); err == nil {
		t.Error("Close returned nil despite shed rows; the operator would trust an incomplete CSV")
	}
	if err := srv.WriteTables(t.TempDir()); err == nil {
		t.Error("WriteTables wrote a gapped table instead of refusing")
	}
}

// TestMetricLongPoll pins the exchange transport: a waiting metric
// request is answered the moment the owning shard's push lands, at full
// float64 precision.
func TestMetricLongPoll(t *testing.T) {
	srv := NewServer(2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	owner := NewClient(ts.URL, experiments.Shard{Index: 0, Count: 2}, "fp")
	peer := NewClient(ts.URL, experiments.Shard{Index: 1, Count: 2}, "fp")
	peer.metricWait = 5 * time.Second

	const exact = 0.1234567890123456789 // rounds to a non-terminating binary fraction
	go func() {
		time.Sleep(50 * time.Millisecond)
		sink := owner.Sink("t")
		sink.Begin(experiments.TableMeta{Name: "T", Header: []string{"v"}})
		sink.MetricRow(experiments.MetricRow{Index: 7, Row: []string{"x"}, Metric: exact, HasMetric: true})
		sink.End()
	}()
	m, ok := peer.ForeignMetric("T", 7)
	if !ok {
		t.Fatal("long-poll missed the pushed metric")
	}
	if m != exact {
		t.Errorf("metric %v crossed the wire as %v; refinement decisions would diverge", exact, m)
	}
	owner.Close()
	peer.Close()
}

// TestMalformedLinesRejectedEverywhere: the record validator lives once,
// in rowlog.Decode, and the rules a record must keep with the records
// before it once, in rowlog.Set.Apply, so the same bad line is refused
// at all three doors a row log comes in by — collectd answers 400 (and
// keeps serving), ResumeJournal and MergeShards return an error naming
// the line.
func TestMalformedLinesRejectedEverywhere(t *testing.T) {
	const (
		stamp = `{"type":"journal","fingerprint":"fp"}` + "\n"
		table = `{"type":"table","name":"T","header":["x"]}` + "\n"
		row0  = `{"type":"row","table":"T","index":0,"row":["x"]}` + "\n"
	)
	cases := map[string]string{
		"metric without a value": `{"type":"metric","table":"T","index":1}`,
		"negative index":         `{"type":"row","table":"T","index":-3,"row":["x"]}`,
		"row without an index":   `{"type":"row","table":"T","row":["x"]}`,
		"unknown type":           `{"type":"bogus"}`,
		"table without a header": `{"type":"table","name":"U"}`,
		"not json":               `{"type":"row",`,
		"line over the cap":      `{"type":"row","table":"T","index":1,"row":["` + strings.Repeat("x", rowlog.MaxLine) + `"]}`,
		"row wider than header":  `{"type":"row","table":"T","index":1,"row":["x","y"]}`,
		"row without cells":      `{"type":"row","table":"T","index":1}`,
		"re-declared header":     `{"type":"table","name":"T","header":["x","y"]}`,
		"end without a count":    `{"type":"end","table":"T"}`,
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			log := stamp + table + bad + "\n" + row0 // the bad line is line 3

			ts := httptest.NewServer(NewServer(1).Handler())
			defer ts.Close()
			post := func(path, body string) int {
				t.Helper()
				resp, err := http.Post(ts.URL+path, "application/jsonl", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp.StatusCode
			}
			if code := post("/v1/hello?shard=0&count=1&fingerprint=fp", ""); code != http.StatusOK {
				t.Fatalf("hello: %d", code)
			}
			if code := post("/v1/push?shard=0&seq=0", log); code != http.StatusBadRequest {
				t.Errorf("collectd answered %d to a push holding %s, want 400", code, name)
			}
			if code := post("/v1/push?shard=0&seq=0", table+row0); code != http.StatusOK {
				t.Errorf("collectd answered %d to a well-formed push after the malformed one", code)
			}

			path := filepath.Join(t.TempDir(), "j.jsonl")
			if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := experiments.ResumeJournal(path, "fp"); err == nil || !strings.Contains(err.Error(), "line 3") {
				t.Errorf("ResumeJournal: %v, want an error naming line 3", err)
			}
			if after, _ := os.ReadFile(path); string(after) != log {
				t.Error("a refused resume rewrote the journal")
			}
			err := experiments.MergeShards([]io.Reader{strings.NewReader(log)}, &experiments.TableSink{})
			if err == nil || !strings.Contains(err.Error(), "line 3") {
				t.Errorf("MergeShards: %v, want an error naming line 3", err)
			}
		})
	}
}

// TestHelloFingerprintMustMatch: the first hello sets the session's
// fingerprint and a shard announcing any other, the empty one included,
// is refused.
func TestHelloFingerprintMustMatch(t *testing.T) {
	ts := httptest.NewServer(NewServer(2).Handler())
	defer ts.Close()
	hello := func(shard int, fp string) int {
		t.Helper()
		resp, err := http.Post(fmt.Sprintf("%s/v1/hello?shard=%d&count=2&fingerprint=%s", ts.URL, shard, fp), "application/jsonl", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range []struct {
		shard int
		fp    string
		want  int
	}{{0, "a", http.StatusOK}, {1, "", http.StatusConflict}, {1, "b", http.StatusConflict}, {1, "a", http.StatusOK}} {
		if got := hello(c.shard, c.fp); got != c.want {
			t.Errorf("hello from shard %d with fingerprint %q: %d, want %d", c.shard, c.fp, got, c.want)
		}
	}
}

// TestRefusedRecordIsNotALostSession: a record the collector's set
// refuses is answered 400, not the 409 that means "session lost, say
// hello and replay" — replaying it could only be refused again, on
// every pass of the pusher, until drainWait. The pusher backs off instead, and Close
// gives up at once with the error that sends the operator to `figures
// -merge`.
func TestRefusedRecordIsNotALostSession(t *testing.T) {
	ts := httptest.NewServer(NewServer(1).Handler())
	defer ts.Close()
	client := NewClient(ts.URL, experiments.Shard{Index: 0, Count: 1}, "fp")
	sink := client.Sink("t")
	if err := errors.Join(sink.Begin(experiments.TableMeta{Name: "T", Header: []string{"v"}}), sink.Row([]string{"x"})); err != nil {
		t.Fatal(err)
	}
	// The sink itself refuses a ragged row, so one can only reach the
	// wire from a producer that bypasses it.
	client.append(rowlog.RowRecord("T", rowlog.Row{Index: 1, Row: []string{"x", "y"}}))

	start := time.Now()
	err := client.Close()
	if err == nil || !strings.Contains(err.Error(), "figures -merge") {
		t.Errorf("Close after a refused record: %v, want the undelivered-records error", err)
	}
	if took := time.Since(start); took > client.drainWait/2 {
		t.Errorf("Close took %v: the pusher treated a refused record as a lost session and replayed until drainWait", took)
	}
}

// TestCloseWakesThePusher: Close returns as soon as the pusher has seen
// the log closed, not on a poll tick. Twenty shards whose logs the
// collector has confirmed close one after another; a pusher that slept
// out a 100 ms tick before it noticed would make that take about two
// seconds.
func TestCloseWakesThePusher(t *testing.T) {
	const shards = 20
	srv := NewServer(shards)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var took time.Duration
	for i := 0; i < shards; i++ {
		client := NewClient(ts.URL, experiments.Shard{Index: i, Count: shards}, "fp")
		client.drainWait = 250 * time.Millisecond // a pusher that never wakes costs this, not 30 s
		sink := client.Sink("t")
		if err := errors.Join(sink.Begin(experiments.TableMeta{Name: "T", Header: []string{"v"}}),
			sink.MetricRow(experiments.MetricRow{Index: i, Row: []string{"x"}, Metric: 1, HasMetric: true}),
			sink.End()); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			client.mu.Lock()
			confirmed := client.pushed == len(client.log)
			client.mu.Unlock()
			if confirmed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: the collector never confirmed its log", i)
			}
		}
		start := time.Now()
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
		took += time.Since(start)
	}
	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the collector never saw every shard done")
	}
	if took > shards*100*time.Millisecond/4 {
		t.Errorf("%d Closes of confirmed logs took %v: Close waits for the pusher's poll tick", shards, took)
	}
}
