// Package workload synthesizes streaming-media access workloads in the
// style of the GISMO toolset [18], configured exactly as the paper's
// Table 1: N=5000 unique objects with Zipf-like popularity (alpha=0.73),
// 100,000 Poisson-arriving requests, Lognormal(3.85, 0.56) object
// durations in minutes, and a 48 KB/s constant bit-rate (2 KB/frame x 24
// frames/s), giving ~790 GB of unique object data. Object values for the
// revenue experiments (Section 2.6) are uniform on [$1, $10].
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"streamcache/internal/core"
	"streamcache/internal/dist"
	"streamcache/internal/units"
)

// ErrBadConfig reports an invalid workload configuration.
var ErrBadConfig = errors.New("workload: invalid configuration")

// Object is one streaming media object, as the cache sees it. IDs are
// assigned in popularity order: object 0 is the hottest.
type Object = core.Object

// Request is one client access. Fraction models GISMO-style user
// interactivity: a partial-viewing session watches only the leading
// Fraction of the stream (1 = watches to the end).
type Request struct {
	Time     float64 // seconds since workload start
	ObjectID int
	Fraction float64 // watched fraction of the stream, in (0, 1]
}

// The object model every workload draws from (Table 1 and GISMO):
// durations are Lognormal(durationMu, durationSigma) minutes, values
// uniform on [valueMin, valueMax] dollars, and a partial viewer watches
// a fraction uniform on [minViewFraction, 1) of the stream.
const (
	durationMu      = 3.85
	durationSigma   = 0.56
	valueMin        = 1
	valueMax        = 10
	minViewFraction = 0.05
)

// Config parameterizes workload generation. Zero fields take the Table 1
// defaults via Normalize.
type Config struct {
	NumObjects    int     // unique objects (default 5000)
	NumRequests   int     // total requests (default 100000)
	ZipfAlpha     float64 // popularity skew (default 0.73)
	BytesPerFrame int64   // default 2 KB
	FramesPerSec  float64 // default 24
	RequestRate   float64 // Poisson arrival rate, requests/s (default 1)
	// PartialViewProb is the probability a session stops early (GISMO
	// user interactivity; default 0 = everyone watches to the end).
	PartialViewProb float64
	Seed            int64
}

// Normalize fills zero fields with the paper's Table 1 defaults and
// validates the result.
func (c Config) Normalize() (Config, error) {
	if c.NumObjects == 0 {
		c.NumObjects = 5000
	}
	if c.NumRequests == 0 {
		c.NumRequests = 100000
	}
	if c.ZipfAlpha == 0 {
		c.ZipfAlpha = 0.73
	}
	if c.BytesPerFrame == 0 {
		c.BytesPerFrame = 2 * units.KB
	}
	if c.FramesPerSec == 0 {
		c.FramesPerSec = 24
	}
	if c.RequestRate == 0 {
		c.RequestRate = 1
	}
	switch {
	case c.PartialViewProb < 0 || c.PartialViewProb > 1 || math.IsNaN(c.PartialViewProb):
		return c, fmt.Errorf("%w: PartialViewProb=%v", ErrBadConfig, c.PartialViewProb)
	case c.NumObjects < 0:
		return c, fmt.Errorf("%w: NumObjects=%d", ErrBadConfig, c.NumObjects)
	case c.NumRequests < 0:
		return c, fmt.Errorf("%w: NumRequests=%d", ErrBadConfig, c.NumRequests)
	case c.ZipfAlpha < 0 || math.IsNaN(c.ZipfAlpha):
		return c, fmt.Errorf("%w: ZipfAlpha=%v", ErrBadConfig, c.ZipfAlpha)
	case c.BytesPerFrame < 0:
		return c, fmt.Errorf("%w: BytesPerFrame=%d", ErrBadConfig, c.BytesPerFrame)
	case c.FramesPerSec < 0 || math.IsNaN(c.FramesPerSec):
		return c, fmt.Errorf("%w: FramesPerSec=%v", ErrBadConfig, c.FramesPerSec)
	case c.RequestRate < 0 || math.IsNaN(c.RequestRate):
		return c, fmt.Errorf("%w: RequestRate=%v", ErrBadConfig, c.RequestRate)
	}
	return c, nil
}

// Rate returns the CBR object rate in bytes/s.
func (c Config) Rate() float64 { return float64(c.BytesPerFrame) * c.FramesPerSec }

// Workload is a generated object catalog plus request trace. A
// generated workload is immutable: Generate never hands out a value it
// retains, and nothing in this package mutates one afterwards, so a
// single Workload may be shared freely across goroutines (the sim
// arena's memoization relies on this).
type Workload struct {
	Config   Config
	Objects  []Object // indexed by ID
	Requests []Request
}

// zipfKey identifies one precomputed popularity CDF.
type zipfKey struct {
	n     int
	alpha float64
}

// zipfTables caches Zipf CDFs across generations: every run of a sweep
// rebuilds the identical (N, alpha) table, which costs an O(N) pass of
// math.Pow. A *dist.Zipf is immutable after construction, so sharing
// one across concurrent generations is safe and changes no output.
var zipfTables sync.Map // zipfKey -> *dist.Zipf

func cachedZipf(n int, alpha float64) (*dist.Zipf, error) {
	key := zipfKey{n: n, alpha: alpha}
	if z, ok := zipfTables.Load(key); ok {
		return z.(*dist.Zipf), nil
	}
	z, err := dist.NewZipf(n, alpha)
	if err != nil {
		return nil, err
	}
	actual, _ := zipfTables.LoadOrStore(key, z)
	return actual.(*dist.Zipf), nil
}

// Generate builds a workload from cfg (zero fields default to Table 1):
// a Generator's catalog and its first NumRequests requests.
func Generate(cfg Config) (*Workload, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	requests := make([]Request, g.Config.NumRequests)
	for i := range requests {
		requests[i] = g.Next()
	}
	return &Workload{Config: g.Config, Objects: g.Objects, Requests: requests}, nil
}

// Generator draws one workload in order, from one random stream seeded
// with Config.Seed: NewGenerator draws the catalog, then each Next draws
// the next request of the trace. It is the only code that draws a
// workload; the trace is its first Config.NumRequests requests. A caller
// that flattens the trace into columns of its own reads it here, one
// request at a time, and never holds a []Request.
type Generator struct {
	Config  Config   // normalised
	Objects []Object // the catalog, indexed by ID
	rng     *rand.Rand
	zipf    *dist.Zipf
	proc    *dist.PoissonProcess
}

// NewGenerator normalises cfg and draws its catalog.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.NumObjects == 0 {
		return nil, fmt.Errorf("%w: no objects", ErrBadConfig)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	durations := dist.Lognormal{Mu: durationMu, Sigma: durationSigma}
	values := dist.Uniform{Min: valueMin, Max: valueMax}
	rate := cfg.Rate()

	objects := make([]Object, cfg.NumObjects)
	for i := range objects {
		durSeconds := durations.Sample(rng) * 60
		objects[i] = Object{
			ID:       i,
			Duration: durSeconds,
			Rate:     rate,
			Size:     int64(durSeconds * rate),
			Value:    values.Sample(rng),
		}
	}

	zipf, err := cachedZipf(cfg.NumObjects, cfg.ZipfAlpha)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	proc, err := dist.NewPoissonProcess(cfg.RequestRate)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return &Generator{Config: cfg, Objects: objects, rng: rng, zipf: zipf, proc: proc}, nil
}

// Next draws the next request: whether the session stops early (and
// where), then its arrival time, then its object.
func (g *Generator) Next() Request {
	frac := 1.0
	if g.Config.PartialViewProb > 0 && g.rng.Float64() < g.Config.PartialViewProb {
		frac = Viewing{Kind: ViewUniform, MinFraction: minViewFraction}.Fraction(g.rng, 0)
	}
	return Request{
		Time:     g.proc.Next(g.rng),
		ObjectID: g.zipf.Sample(g.rng) - 1, // rank r -> object ID r-1
		Fraction: frac,
	}
}

// ViewingKind names a viewing-duration distribution for one workload
// class (the open-loop load generator's per-class "how long does a
// session watch" model; the GISMO user-interactivity knob generalized
// from a probability to a distribution).
type ViewingKind string

// The supported viewing-duration distributions.
const (
	// ViewFull watches every stream to the end (fraction 1).
	ViewFull ViewingKind = "full"
	// ViewUniform watches a uniform fraction on [MinFraction, 1).
	ViewUniform ViewingKind = "uniform"
	// ViewLognormal watches Lognormal(Mu, Sigma) seconds of the stream,
	// truncated to the object's duration.
	ViewLognormal ViewingKind = "lognormal"
)

// Viewing is a viewing-duration distribution: it samples the fraction
// of a stream one session watches. The zero value is ViewFull. The JSON
// keys are the "viewing" block of a loadgen workload spec.
type Viewing struct {
	Kind ViewingKind `json:"dist"`
	// MinFraction bounds how early a ViewUniform session may stop
	// (default 0.05, where a trace's partial viewers stop).
	MinFraction float64 `json:"min_fraction"`
	// Mu, Sigma parameterize the ViewLognormal watched duration in
	// seconds: exp(N(Mu, Sigma^2)).
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

// Validate normalizes and checks the distribution parameters.
func (v Viewing) Validate() (Viewing, error) {
	if v.Kind == "" {
		v.Kind = ViewFull
	}
	switch v.Kind {
	case ViewFull:
	case ViewUniform:
		if v.MinFraction == 0 {
			v.MinFraction = minViewFraction
		}
		if v.MinFraction < 0 || v.MinFraction > 1 || math.IsNaN(v.MinFraction) {
			return v, fmt.Errorf("%w: viewing MinFraction=%v, want in [0, 1]", ErrBadConfig, v.MinFraction)
		}
	case ViewLognormal:
		if math.IsNaN(v.Mu) || math.IsInf(v.Mu, 0) {
			return v, fmt.Errorf("%w: viewing Mu=%v, want finite", ErrBadConfig, v.Mu)
		}
		if v.Sigma < 0 || math.IsNaN(v.Sigma) || math.IsInf(v.Sigma, 0) {
			return v, fmt.Errorf("%w: viewing Sigma=%v, want finite >= 0", ErrBadConfig, v.Sigma)
		}
	default:
		return v, fmt.Errorf("%w: viewing Kind=%q, want full, uniform or lognormal", ErrBadConfig, v.Kind)
	}
	return v, nil
}

// Fraction samples the watched fraction of a stream with the given
// playback duration in seconds. The result is always in (0, 1].
func (v Viewing) Fraction(rng *rand.Rand, objDuration float64) float64 {
	switch v.Kind {
	case ViewUniform:
		return v.MinFraction + float64(rng.Float64()*(1-v.MinFraction))
	case ViewLognormal:
		if objDuration <= 0 {
			return 1
		}
		watched := dist.Lognormal{Mu: v.Mu, Sigma: v.Sigma}.Sample(rng)
		frac := watched / objDuration
		if frac >= 1 {
			return 1
		}
		// Never hand back a zero-byte session: the open-loop client
		// still fetches at least the leading sliver of the stream.
		if frac < 1e-3 {
			return 1e-3
		}
		return frac
	default:
		return 1
	}
}

// TotalUniqueBytes returns the summed size of all unique objects (the
// paper's "Total Storage", ~790 GB with defaults).
func (w *Workload) TotalUniqueBytes() int64 {
	var total int64
	for _, o := range w.Objects {
		total += o.Size
	}
	return total
}

// Span returns the time of the last request (0 for empty workloads).
func (w *Workload) Span() float64 {
	if len(w.Requests) == 0 {
		return 0
	}
	return w.Requests[len(w.Requests)-1].Time
}

// RequestCounts returns how many times each object is requested.
func (w *Workload) RequestCounts() []int64 {
	counts := make([]int64, len(w.Objects))
	for _, r := range w.Requests {
		counts[r.ObjectID]++
	}
	return counts
}

// MeanDurationSeconds returns the average object duration.
func (w *Workload) MeanDurationSeconds() float64 {
	if len(w.Objects) == 0 {
		return 0
	}
	sum := 0.0
	for _, o := range w.Objects {
		sum += o.Duration
	}
	return sum / float64(len(w.Objects))
}
