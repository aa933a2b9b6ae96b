package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"streamcache/internal/experiments"
	"streamcache/internal/rowlog"
)

// Client is one shard's connection to the collector. It plays two roles
// wired into the sweep engine:
//
//   - As a sink (via Sink), it appends every emitted row to an
//     in-memory record log that a background pusher ships to the
//     collector. Appends never block on the network: the log is
//     bounded, and when the collector falls behind the cap, new rows
//     are shed — they are still safe in the run's journal, and the
//     operator falls back to the journal merge (WriteTables refuses
//     gapped tables rather than writing a truncated CSV).
//
//   - As a Scale.Exchange (via ForeignMetric), it long-polls the
//     collector for metrics of points other shards own. Any failure —
//     collector down, peer dead, timeout — returns ok=false and the
//     engine evaluates the point locally, so the collector is never a
//     correctness dependency.
//
// A client that cannot reach the collector at creation runs the whole
// sweep in this degraded-but-correct mode.
type Client struct {
	base        string
	shard       experiments.Shard
	fingerprint string
	hc          *http.Client

	// metricWait bounds one ForeignMetric call; after it the engine
	// falls back to evaluating the point locally.
	metricWait time.Duration
	// drainWait bounds Close's wait for the pusher to empty the log.
	drainWait time.Duration
	// maxBacklog caps unconfirmed records in the log; beyond it new
	// rows are shed to the journal.
	maxBacklog int

	mu     sync.Mutex
	log    []rowlog.Record
	pushed int // records confirmed by the collector this session
	shed   int
	closed bool
	down   bool

	kick    chan struct{}
	drained chan struct{}
}

// NewClient connects to the collector at base (e.g.
// "http://host:9190") as the given shard. A collector that cannot be
// reached leaves the client in the down state: sinks no-op, foreign
// metrics miss, the sweep still completes against its journal.
func NewClient(base string, shard experiments.Shard, fingerprint string) *Client {
	if shard.Count < 1 {
		shard = experiments.Shard{Index: 0, Count: 1}
	}
	c := &Client{
		base:        base,
		shard:       shard,
		fingerprint: fingerprint,
		hc:          &http.Client{Timeout: 60 * time.Second},
		metricWait:  15 * time.Second,
		drainWait:   30 * time.Second,
		maxBacklog:  1 << 16,
		kick:        make(chan struct{}, 1),
		drained:     make(chan struct{}),
	}
	if err := c.hello(); err != nil {
		c.down = true
		close(c.drained)
		return c
	}
	go c.pusher()
	return c
}

// Down reports whether the collector was unreachable at creation.
func (c *Client) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// Shed returns how many records were dropped from the push log because
// the collector could not keep up (they remain in the journal).
func (c *Client) Shed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shed
}

func (c *Client) hello() error {
	q := url.Values{
		"shard":       {strconv.Itoa(c.shard.Index)},
		"count":       {strconv.Itoa(c.shard.Count)},
		"fingerprint": {c.fingerprint},
	}
	resp, err := c.hc.Post(c.base+"/v1/hello?"+q.Encode(), "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("collect: hello: %s", resp.Status)
	}
	return nil
}

// append queues one record for the pusher. Never blocks: a full
// backlog sheds row/metric records (table declarations always queue —
// they are tiny and dropping one would orphan every later row).
func (c *Client) append(rec rowlog.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down || c.closed {
		return
	}
	if rec.Type != rowlog.TypeTable && len(c.log)-c.pushed >= c.maxBacklog {
		c.shed++
		return
	}
	c.log = append(c.log, rec)
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// pusher ships log batches in the background. It blocks on kick only
// while the log is empty, retries a failed push on its backoff, and
// returns once a closed log is fully confirmed (or its collector is
// dead): append and Close kick, and kick's buffer of one loses none.
func (c *Client) pusher() {
	defer close(c.drained)
	backoff := 50 * time.Millisecond
	for {
		c.mu.Lock()
		batch := c.log[c.pushed:]
		seq := c.pushed
		closed := c.closed
		c.mu.Unlock()
		if len(batch) == 0 {
			if closed {
				return
			}
			<-c.kick
			continue
		}
		switch err := c.push(seq, batch); {
		case err == nil:
			c.mu.Lock()
			if end := seq + len(batch); end > c.pushed {
				c.pushed = end
			}
			c.mu.Unlock()
			backoff = 50 * time.Millisecond
			continue
		case err == errSeqConflict && c.hello() == nil:
			// The collector lost our session (restart, missed batch):
			// replay the whole log. Dedupe by (table, index) makes the
			// replay idempotent.
			c.mu.Lock()
			c.pushed = 0
			c.mu.Unlock()
			continue
		case closed:
			return // draining against a dead collector: give up
		}
		time.Sleep(backoff)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// errSeqConflict marks a 409 push response: session state mismatch,
// recoverable by hello + full replay.
var errSeqConflict = fmt.Errorf("collect: push sequence conflict")

// push ships one batch of records as JSONL at the given sequence.
func (c *Client) push(seq int, batch []rowlog.Record) error {
	var body bytes.Buffer
	for _, rec := range batch {
		if err := rec.Encode(&body); err != nil {
			return err
		}
	}
	q := url.Values{
		"shard": {strconv.Itoa(c.shard.Index)},
		"seq":   {strconv.Itoa(seq)},
	}
	resp, err := c.hc.Post(c.base+"/v1/push?"+q.Encode(), "application/jsonl", &body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return errSeqConflict
	default:
		return fmt.Errorf("collect: push: %s", resp.Status)
	}
}

// ForeignMetric implements experiments.MetricExchange: it long-polls
// the collector for a point another shard owns. ok=false on any
// failure or timeout; the engine then evaluates the point locally.
func (c *Client) ForeignMetric(table string, index int) (float64, bool) {
	c.mu.Lock()
	down := c.down
	c.mu.Unlock()
	if down {
		return 0, false
	}
	// Nudge the pusher so our own freshly-emitted metrics reach the
	// collector while we wait on a peer's.
	select {
	case c.kick <- struct{}{}:
	default:
	}
	deadline := time.Now().Add(c.metricWait)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return 0, false
		}
		wait := 2 * time.Second
		if wait > remaining {
			wait = remaining
		}
		q := url.Values{
			"table":   {table},
			"index":   {strconv.Itoa(index)},
			"wait_ms": {strconv.Itoa(int(wait / time.Millisecond))},
		}
		resp, err := c.hc.Get(c.base + "/v1/metric?" + q.Encode())
		if err != nil {
			return 0, false
		}
		if resp.StatusCode == http.StatusOK {
			var out struct {
				Metric float64 `json:"metric"`
			}
			err := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				return 0, false
			}
			return out.Metric, true
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return 0, false
		}
	}
}

// Close drains the push log (bounded by drainWait), reports this shard
// done to the collector, and stops the pusher. A down client closes
// immediately — the journal already holds everything.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	down := c.down
	c.mu.Unlock()
	if down {
		return nil
	}
	select {
	case c.kick <- struct{}{}:
	default:
	}
	select {
	case <-c.drained:
	case <-time.After(c.drainWait):
	}
	c.mu.Lock()
	undelivered := len(c.log) - c.pushed
	shed := c.shed
	c.mu.Unlock()
	if undelivered > 0 || shed > 0 {
		return fmt.Errorf("collect: %d records undelivered and %d shed; the collector CSV will be incomplete — run `figures -merge` over the shards' journals instead",
			undelivered, shed)
	}
	q := url.Values{"shard": {strconv.Itoa(c.shard.Index)}}
	resp, err := c.hc.Post(c.base+"/v1/done?"+q.Encode(), "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("collect: done: %s", resp.Status)
	}
	return nil
}

// Sink streams one table's rows into the client's push log. Engine-
// emitted rows arrive with their global index and refinement metric;
// rows pushed through plain Row (non-engine producers) are numbered by
// a local counter, matching the JSONL sink's convention.
type Sink = rowlog.Recorder

// Sink returns a RowSink streaming one table to the collector, tagging
// its declaration with the canonical output file stem (WriteTables
// writes <fileStem>.csv). Compose it into the experiment's MultiSink
// next to the CSV/JSONL/journal sinks.
func (c *Client) Sink(fileStem string) *Sink {
	return rowlog.NewRecorder(fileStem, func(rec rowlog.Record) error {
		c.append(rec)
		return nil
	})
}
