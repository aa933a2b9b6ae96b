// Package collect is the streaming results plane of sharded sweeps: an
// HTTP collector service that shards push completed rows and refinement
// metrics to as they finish, so one process holds the canonical result
// set live and writes it without an offline merge of the shards'
// journals. It carries two kinds of traffic:
//
//   - Rows. Every engine-emitted row (global index, payload, optional
//     refinement metric) is appended to the shard's local record log and
//     pushed in the background; the collector dedupes by (table, index)
//     and writes the canonical CSV files once every shard reports done —
//     byte-identical to a single-process run.
//
//   - Metrics. A shard refining adaptively needs the metrics of points
//     other shards own. Client.ForeignMetric long-polls the collector,
//     which answers as soon as the owning shard's push lands, so each
//     shard simulates only its owned points per refinement round
//     (O(total/N) instead of O(total) simulations per shard).
//
// The transport is a row log (internal/rowlog; the record grammar is
// DESIGN.md §4a) over HTTP with per-shard sequence numbers within a
// session: a reconnecting shard re-registers via /v1/hello and
// replays its whole log, which the dedupe makes idempotent — a shard
// killed mid-push resumes (engine journal replay repopulates its log)
// with no duplicated and no lost rows. Exactness note: metrics cross
// the wire as JSON float64 numbers, which Go round-trips bit-exactly
// (strconv shortest representation), so refinement decisions taken on
// fetched metrics are identical to local evaluation — the collector is
// purely a compute optimization, never a correctness dependency, and
// every failure mode degrades to local evaluation plus the journal.
package collect

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"streamcache/internal/experiments"
	"streamcache/internal/rowlog"
)

// shardState tracks one shard's push session.
type shardState struct {
	accepted int // records accepted this session; the next expected seq
	done     bool
}

// Server is the collector: an http.Handler folding pushed records into
// a rowlog.Set — whose (table, index) dedupe is what makes whole-log
// replay after a reconnect safe — and answering metric long-polls from
// it. All state is in memory; the canonical files are written by
// WriteTables once every shard is done.
type Server struct {
	mu          sync.Mutex
	cond        *sync.Cond
	fingerprint string // stamped by the first hello; later hellos must match
	expected    int    // shard count; 0 until configured or first hello
	shards      map[int]*shardState
	tables      rowlog.Set
	done        chan struct{}
}

// NewServer builds a collector expecting the given shard count
// (0 = adopt the count announced by the first hello).
func NewServer(expectedShards int) *Server {
	s := &Server{
		expected: expectedShards,
		shards:   map[int]*shardState{},
		done:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Done is closed once every expected shard has reported done.
func (s *Server) Done() <-chan struct{} { return s.done }

// Handler returns the collector's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/hello", s.handleHello)
	mux.HandleFunc("POST /v1/push", s.handlePush)
	mux.HandleFunc("POST /v1/done", s.handleDone)
	mux.HandleFunc("GET /v1/metric", s.handleMetric)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	return mux
}

func intParam(r *http.Request, name string) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing %s", name)
	}
	return strconv.Atoi(v)
}

// handleHello registers (or re-registers) a shard, resetting its push
// session so a reconnect replays its record log from sequence zero.
func (s *Server) handleHello(w http.ResponseWriter, r *http.Request) {
	shard, err := intParam(r, "shard")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	count, err := intParam(r, "count")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := r.URL.Query().Get("fingerprint")

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expected == 0 {
		s.expected = count
	}
	if count != s.expected {
		http.Error(w, fmt.Sprintf("collector expects %d shards, shard announced %d", s.expected, count), http.StatusConflict)
		return
	}
	if shard < 0 || shard >= s.expected {
		http.Error(w, fmt.Sprintf("shard %d out of range 0..%d", shard, s.expected-1), http.StatusBadRequest)
		return
	}
	// The first hello sets the session's fingerprint, and every later
	// one must equal it — mixing scales would silently interleave
	// incompatible sweeps.
	if len(s.shards) == 0 {
		s.fingerprint = fp
	}
	if fp != s.fingerprint {
		http.Error(w, fmt.Sprintf("collector holds fingerprint %q, shard sent %q", s.fingerprint, fp), http.StatusConflict)
		return
	}
	s.shards[shard] = &shardState{}
	w.WriteHeader(http.StatusOK)
}

// handlePush accepts a batch of JSONL records at the shard's next
// sequence number. Batches at or below the accepted sequence replay
// records the dedupe already holds (idempotent); a batch beyond it
// means lost traffic, answered with 409 so the client re-hellos and
// replays its whole log. A record the set refuses (a ragged row, a
// re-declared header) is 400 like a malformed line: replaying it can
// only be refused again.
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	shard, err := intParam(r, "shard")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	seq, err := intParam(r, "seq")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var recs []rowlog.Record
	if err := rowlog.Load(r.Body, func(rec rowlog.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.shards[shard]
	if ss == nil {
		http.Error(w, "unknown shard: hello first", http.StatusConflict)
		return
	}
	if seq > ss.accepted {
		http.Error(w, fmt.Sprintf("sequence gap: got %d, accepted %d", seq, ss.accepted), http.StatusConflict)
		return
	}
	for _, rec := range recs {
		if _, err := s.tables.Apply(rec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if end := seq + len(recs); end > ss.accepted {
		ss.accepted = end
	}
	s.cond.Broadcast()
	w.WriteHeader(http.StatusOK)
}

// handleDone marks a shard finished; when the last expected shard
// reports, Done() closes.
func (s *Server) handleDone(w http.ResponseWriter, r *http.Request) {
	shard, err := intParam(r, "shard")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.shards[shard]
	if ss == nil {
		http.Error(w, "unknown shard: hello first", http.StatusConflict)
		return
	}
	ss.done = true
	if s.allDone() {
		select {
		case <-s.done:
		default:
			close(s.done)
		}
	}
	w.WriteHeader(http.StatusOK)
}

// allDone reports whether every expected shard has said hello and
// reported done. Callers hold s.mu.
func (s *Server) allDone() bool {
	all := s.expected > 0 && len(s.shards) == s.expected
	for _, ss := range s.shards {
		all = all && ss.done
	}
	return all
}

// handleMetric answers one metric long-poll: it blocks up to wait_ms
// for the keyed metric to arrive (from the owning shard's push),
// returning 204 on timeout. The requesting shard falls back to local
// evaluation on timeout, so a slow or dead peer costs time, never
// correctness.
func (s *Server) handleMetric(w http.ResponseWriter, r *http.Request) {
	table := r.URL.Query().Get("table")
	index, err := intParam(r, "index")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	waitMS, _ := strconv.Atoi(r.URL.Query().Get("wait_ms"))
	if waitMS < 0 {
		waitMS = 0
	}
	if waitMS > 30_000 {
		waitMS = 30_000
	}
	m, ok := s.waitMetric(table, index, time.Duration(waitMS)*time.Millisecond)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Metric float64 `json:"metric"`
	}{m})
}

// waitMetric blocks until the metric at (table, index) is known or wait
// elapses.
func (s *Server) waitMetric(table string, index int, wait time.Duration) (float64, bool) {
	deadline := time.Now().Add(wait)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if r, _ := s.tables.Table(table).At(index); r.HasMetric {
			return r.Metric, true
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return 0, false
		}
		timer := time.AfterFunc(remaining, s.cond.Broadcast)
		s.cond.Wait()
		timer.Stop()
	}
}

// statusTable is one table's live summary in /v1/status.
type statusTable struct {
	Name string `json:"name"`
	File string `json:"file,omitempty"`
	Rows int    `json:"rows"`
	Gaps int    `json:"gaps"` // indexes missing below the highest seen
}

// handleStatus reports shard sessions and per-table progress.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	type shardStatus struct {
		Shard    int  `json:"shard"`
		Accepted int  `json:"accepted"`
		Done     bool `json:"done"`
	}
	var out struct {
		Expected int           `json:"expected_shards"`
		Shards   []shardStatus `json:"shards"`
		Tables   []statusTable `json:"tables"`
	}
	out.Expected = s.expected
	for i, ss := range s.shards {
		out.Shards = append(out.Shards, shardStatus{Shard: i, Accepted: ss.accepted, Done: ss.done})
	}
	for _, name := range s.tables.Names() {
		t := s.tables.Table(name)
		out.Tables = append(out.Tables, statusTable{Name: name, File: t.File, Rows: t.Len(), Gaps: t.Next() - t.Len()})
	}
	s.mu.Unlock()
	slices.SortFunc(out.Shards, func(a, b shardStatus) int { return a.Shard - b.Shard })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// WriteTables renders every collected table to dir as its canonical CSV
// — the same preamble, header, and index-ordered rows a single-process
// sweep streams, so the bytes are identical. A table with index gaps
// (a shard shed rows or never finished) is refused, not silently
// truncated: the caller falls back to `figures -merge` over the shards'
// journals. The lock is held only to copy the tables out, so status
// and metric requests are served while the files are written.
func (s *Server) WriteTables(dir string) error {
	s.mu.Lock()
	ready := s.allDone()
	var tables []*rowlog.Table
	for _, name := range s.tables.Names() {
		tables = append(tables, s.tables.Table(name).Clone())
	}
	s.mu.Unlock()
	if !ready {
		// A shard that shed rows never reports done (its Close errors),
		// and its missing tail is a contiguous prefix cut — invisible to
		// the per-table gap check below — so done-ness is the gate.
		return fmt.Errorf("collect: not every shard has reported done; refusing to write partial tables")
	}
	for _, t := range tables {
		if err := t.Complete(); err != nil {
			return fmt.Errorf("collect: incomplete push, run `figures -merge` over the shards' journals instead: %w", err)
		}
		if err := experiments.WriteTable(dir, t, false); err != nil {
			return fmt.Errorf("collect: %w", err)
		}
	}
	return nil
}
