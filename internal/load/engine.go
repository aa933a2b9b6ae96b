package load

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"streamcache/internal/dist"
	"streamcache/internal/experiments"
	"streamcache/internal/proxy"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

// ErrBadRun reports an invalid engine configuration.
var ErrBadRun = errors.New("load: invalid run")

// Item is one scheduled request, already bound to an object and a
// watched prefix so the schedule is a complete, replayable artifact.
type Item struct {
	Index int // position in the schedule
	// Time is the arrival time in workload seconds from run start,
	// strictly positive for an arrival BuildSchedule drew from a clock.
	// 0 marks an untimed item (ClosedSchedule): it has no instant to be
	// late for, so it is due whenever an in-flight slot is free.
	Time     float64
	Class    string
	ClassIdx int // index into Spec.Classes
	ObjectID int
	Fraction float64 // watched fraction of the stream, in (0, 1]
	// WatchBytes is the byte budget of the download: 0 means download
	// everything (Fraction == 1).
	WatchBytes int64
}

// BuildSchedule expands a spec into the merged arrival schedule for one
// ramp level. Each class draws from its own rng seeded with
// sim.SplitSeed(seed, classIdx), so the schedule is a pure function of
// (spec, seed, horizon, maxRequests, rateScale) — byte-identical across
// runs and independent of anything the engine later measures. Trace
// classes replay trace's request sequence (timestamps compressed by
// rateScale); synthetic classes sample objects from the catalog with
// the class's Zipf skew. maxRequests > 0 truncates the merged schedule.
func BuildSchedule(spec *Spec, catalog *proxy.Catalog, trace []workload.Request, seed int64, horizon float64, maxRequests int, rateScale float64) ([]Item, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if catalog == nil || catalog.Len() == 0 {
		return nil, fmt.Errorf("%w: empty catalog", ErrBadRun)
	}
	// NaN fails each !(x > 0); an infinite horizon never ends a class.
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("%w: horizon = %v, want finite > 0", ErrBadRun, horizon)
	}
	if !(rateScale > 0) || math.IsInf(rateScale, 1) {
		return nil, fmt.Errorf("%w: rate scale = %v, want finite > 0", ErrBadRun, rateScale)
	}
	if spec.UsesTrace() && len(trace) == 0 {
		return nil, fmt.Errorf("%w: spec has a trace class but no trace was supplied", ErrBadRun)
	}

	ids := catalog.IDs()
	var items []Item
	for ci := range spec.Classes {
		c := &spec.Classes[ci]
		rng := rand.New(rand.NewSource(sim.SplitSeed(seed, int64(ci))))
		if c.Arrival.Process == "trace" {
			items = append(items, replayItems(c, ci, catalog, trace, horizon, rateScale)...)
			continue
		}
		classItems, err := syntheticItems(c, ci, catalog, ids, rng, horizon, rateScale)
		if err != nil {
			return nil, err
		}
		items = append(items, classItems...)
	}

	// Merge the per-class streams into one arrival order. The stable sort
	// preserves each class's internal sequence, and (Time, ClassIdx)
	// breaks cross-class ties deterministically.
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].Time != items[j].Time {
			return items[i].Time < items[j].Time
		}
		return items[i].ClassIdx < items[j].ClassIdx
	})
	if maxRequests > 0 && len(items) > maxRequests {
		items = items[:maxRequests]
	}
	for i := range items {
		items[i].Index = i
	}
	return items, nil
}

// replayItems converts the trace's own request sequence into schedule
// items, compressing timestamps by rateScale to scale offered load.
func replayItems(c *Class, ci int, catalog *proxy.Catalog, trace []workload.Request, horizon, rateScale float64) []Item {
	var out []Item
	for _, req := range trace {
		if req.Time <= 0 {
			continue
		}
		t := req.Time / rateScale
		if t > horizon {
			break
		}
		meta, ok := catalog.Get(req.ObjectID)
		if !ok {
			continue
		}
		out = append(out, Item{
			Time:       t,
			Class:      c.Name,
			ClassIdx:   ci,
			ObjectID:   req.ObjectID,
			Fraction:   req.Fraction,
			WatchBytes: watchBytes(meta.Size, req.Fraction),
		})
	}
	return out
}

// syntheticItems generates one synthetic class's arrivals and binds each
// to a sampled object and watched fraction.
func syntheticItems(c *Class, ci int, catalog *proxy.Catalog, ids []int, rng *rand.Rand, horizon, rateScale float64) ([]Item, error) {
	zipf, err := dist.NewZipf(len(ids), c.ZipfAlpha)
	if err != nil {
		return nil, fmt.Errorf("load: class %q: %w", c.Name, err)
	}
	times := c.process(rateScale).Times(rng, horizon)
	out := make([]Item, 0, len(times))
	for _, t := range times {
		id := ids[zipf.Sample(rng)-1] // rank r -> r-th hottest catalog object
		meta, _ := catalog.Get(id)
		frac := c.Viewing.Fraction(rng, meta.Duration)
		out = append(out, Item{
			Time:       t,
			Class:      c.Name,
			ClassIdx:   ci,
			ObjectID:   id,
			Fraction:   frac,
			WatchBytes: watchBytes(meta.Size, frac),
		})
	}
	return out, nil
}

// watchBytes converts a watched fraction into a download byte budget:
// full sessions get 0 (download everything, digest verifiable), partial
// sessions at least one byte.
func watchBytes(size int64, fraction float64) int64 {
	if fraction >= 1 {
		return 0
	}
	n := int64(fraction * float64(size))
	if n < 1 {
		n = 1
	}
	return n
}

// ClosedSchedule binds trace's requests, in trace order, to untimed
// items of spec's first class, each watched to the end. This is where a
// run becomes a closed loop: an item without an arrival time waits for
// a slot instead of being shed, so Run keeps exactly MaxInflight
// downloads going — MaxInflight clients, each issuing its next request
// as the previous one completes.
func ClosedSchedule(spec *Spec, trace []workload.Request) []Item {
	items := make([]Item, len(trace))
	for i, req := range trace {
		items[i] = Item{Index: i, Class: spec.Classes[0].Name, ObjectID: req.ObjectID, Fraction: 1}
	}
	return items
}

// ScheduleHeader is the row schema of a serialized schedule.
var ScheduleHeader = []string{"index", "time_s", "class", "object_id", "fraction", "watch_bytes"}

// ScheduleTable renders a schedule as a table. The rendering is
// fixed-format ('g' floats, no locale), so for a deterministic schedule
// the emitted bytes are deterministic too — this is the artifact the
// determinism regression test diffs.
func ScheduleTable(name string, items []Item) *experiments.Table {
	t := &experiments.Table{
		Name:   name,
		Note:   "open-loop arrival schedule; times in workload seconds",
		Header: ScheduleHeader,
	}
	for _, it := range items {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(it.Index),
			strconv.FormatFloat(it.Time, 'g', -1, 64),
			it.Class,
			strconv.Itoa(it.ObjectID),
			strconv.FormatFloat(it.Fraction, 'g', -1, 64),
			strconv.FormatInt(it.WatchBytes, 10),
		})
	}
	return t
}

// State classifies the fate of one scheduled item.
type State uint8

// The possible fates. Every scheduled item ends in exactly one:
// issued == completed + shed + failed.
const (
	// Completed: the download finished (for the watched prefix).
	Completed State = iota
	// Shed: the arrival fired while the in-flight cap was saturated and
	// was dropped without issuing a request. Shedding — rather than
	// queueing — is what keeps a timed schedule open-loop: a queued
	// arrival would wait for capacity and silently turn the experiment
	// back into a closed loop.
	Shed
	// Failed: the request was issued but errored (connection refused,
	// non-200, read error, short body, digest mismatch).
	Failed
)

// String returns the state's report label.
func (s State) String() string {
	switch s {
	case Completed:
		return "completed"
	case Shed:
		return "shed"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Outcome is the measured fate of one scheduled item.
type Outcome struct {
	Item     Item
	State    State
	Startup  time.Duration // startup delay at the object's playback rate
	TTFB     time.Duration
	Elapsed  time.Duration
	Bytes    int64
	HitBytes int64  // bytes served from the cached prefix, at most Bytes
	Err      string // non-empty iff State == Failed
}

// Options configures one run of a schedule.
type Options struct {
	// Edges are the base URLs of the proxies under test in ring order:
	// item i goes to Edges[i mod len(Edges)], the assignment the
	// simulator's hierarchy runs use (required).
	Edges []string
	// Catalog is the object directory (required).
	Catalog *proxy.Catalog
	// Spec names the schedule's classes and their SLO budgets (required).
	Spec *Spec
	// TimeScale compresses workload time: a scheduled arrival at
	// workload second t fires at wall second t/TimeScale, so TimeScale 60
	// replays an hour of workload per wall minute (default 1).
	TimeScale float64
	// MaxInflight bounds concurrent downloads (default 256).
	MaxInflight int
	// RateScale is the ramp-sweep level the schedule was built at; the
	// report carries it (default 1).
	RateScale float64
	// Verify checks full-download digests against the catalog content.
	Verify bool
}

// Normalize returns o with every unset field at its default, or
// ErrBadRun for a value no run can use. Run normalizes its options; a
// caller that builds its schedules first (loadgen -dry-run stops there)
// calls it up front, so a bad option fails before anything is built.
func (o Options) Normalize() (Options, error) {
	if len(o.Edges) == 0 {
		return o, fmt.Errorf("%w: no proxy URL", ErrBadRun)
	}
	if o.Catalog == nil {
		return o, fmt.Errorf("%w: no catalog", ErrBadRun)
	}
	if o.Spec == nil {
		return o, fmt.Errorf("%w: no spec", ErrBadRun)
	}
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	if !(o.TimeScale > 0) || math.IsInf(o.TimeScale, 1) { // NaN fails
		return o, fmt.Errorf("%w: time scale = %v, want finite > 0", ErrBadRun, o.TimeScale)
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 256
	}
	if o.MaxInflight < 0 {
		return o, fmt.Errorf("%w: max inflight = %d, want > 0", ErrBadRun, o.MaxInflight)
	}
	if o.RateScale == 0 {
		o.RateScale = 1
	}
	return o, nil
}

// Run dispatches a schedule against the edges: each item is issued no
// earlier than its compressed wall time, at most MaxInflight downloads
// run at once, and it returns the per-item outcomes plus a summary
// report. It is the one dispatcher behind both loadgen modes; what a
// full house does to an item is the item's own property (see Item.Time).
// A schedule is deterministic; the measured outcomes of course are not.
func Run(opts Options, items []Item) ([]Outcome, *Report, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, nil, err
	}

	outcomes := make([]Outcome, len(items))
	sem := make(chan struct{}, opts.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, it := range items {
		due := time.Duration(it.Time / opts.TimeScale * float64(time.Second))
		if sleep := due - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		select {
		case sem <- struct{}{}:
		default:
			if it.Time > 0 {
				// Saturated at the arrival's instant: drop it on the floor
				// and account for it, however the proxy is keeping up.
				outcomes[i] = Outcome{Item: it, State: Shed}
				continue
			}
			sem <- struct{}{} // untimed: due when a slot frees
		}
		wg.Add(1)
		go func(i int, it Item) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i] = measure(opts, opts.Edges[i%len(opts.Edges)], it)
		}(i, it)
	}
	wg.Wait()
	wall := time.Since(start)

	report := Summarize(opts.Spec, outcomes, wall, opts.TimeScale, opts.RateScale)
	return outcomes, report, nil
}

// measure issues one request to edge and turns the fetch into the
// item's Outcome.
func measure(opts Options, edge string, it Item) Outcome {
	out := Outcome{Item: it, State: Failed}
	meta, ok := opts.Catalog.Get(it.ObjectID)
	if !ok {
		out.Err = fmt.Sprintf("object %d not in catalog", it.ObjectID)
		return out
	}
	res, err := proxy.FetchN(fmt.Sprintf("%s/objects/%d", edge, it.ObjectID), it.WatchBytes)
	full := it.WatchBytes == 0
	switch {
	case err != nil:
		out.Err = err.Error()
	case full && res.Bytes != meta.Size:
		out.Err = fmt.Sprintf("%d bytes, want %d", res.Bytes, meta.Size)
	case full && opts.Verify && res.SHA256 != proxy.ContentSHA256(it.ObjectID, meta.Size):
		out.Err = "digest mismatch"
	default:
		out.State = Completed
		out.TTFB = res.TTFB
		out.Elapsed = res.Elapsed
		out.Bytes = res.Bytes
		// The X-Cache header reports the whole prefix the proxy was about
		// to serve; a session that hangs up inside it was served only
		// what it read.
		out.HitBytes = min(res.HitBytes(), res.Bytes)
		// Startup delay is judged at the compressed playback rate: when
		// TimeScale compresses workload time, the client must also drain
		// the stream proportionally faster for the delay to mean the same
		// thing it does at full scale.
		out.Startup = res.StartupDelay(meta.Rate * opts.TimeScale)
	}
	return out
}
