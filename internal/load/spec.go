package load

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"streamcache/internal/workload"
)

// ErrBadSpec reports an invalid workload specification.
var ErrBadSpec = errors.New("load: invalid spec")

// Spec is a multi-class open-loop workload: each class contributes an
// independent arrival stream with its own viewing behavior, popularity
// skew and SLO budget. Loaded from JSON with ParseSpec.
type Spec struct {
	Classes []Class `json:"classes"`
}

// Class is one workload class.
type Class struct {
	// Name labels the class in reports (required, unique).
	Name string `json:"name"`
	// Arrival configures the class's arrival process (required).
	Arrival ArrivalSpec `json:"arrival"`
	// Viewing configures how much of each stream a session watches
	// (default: watch to the end).
	Viewing workload.Viewing `json:"viewing"`
	// SLO is the class's startup-delay budget (required: a named class
	// or an explicit startup_ms).
	SLO SLOSpec `json:"slo"`
	// ZipfAlpha skews the class's object popularity (default 0.73,
	// Table 1). Ignored by trace-replay classes, which reuse the
	// trace's own object sequence.
	ZipfAlpha float64 `json:"zipf_alpha"`
}

// ArrivalSpec selects and parameterizes an arrival process.
type ArrivalSpec struct {
	// Process is "poisson", "trace" or "onoff".
	Process string `json:"process"`
	// Rate is the Poisson arrival rate in requests per workload second.
	Rate float64 `json:"rate"`
	// OnOff parameterizes the self-similar on-off superposition; its
	// keys (sources, peak_rate, on_shape, ...) sit beside process and
	// rate in the JSON.
	OnOff
}

// SLOSpec is a startup-delay budget: a named class, an explicit
// threshold, or both (the explicit threshold wins).
type SLOSpec struct {
	// Class names a preset budget: "interactive" (250 ms), "standard"
	// (1000 ms) or "relaxed" (4000 ms).
	Class string `json:"class"`
	// StartupMS is an explicit startup-delay budget in milliseconds.
	StartupMS float64 `json:"startup_ms"`
}

// The named SLO classes and their startup-delay budgets.
var sloClasses = map[string]float64{
	"interactive": 250,
	"standard":    1000,
	"relaxed":     4000,
}

// Threshold returns the class's startup-delay budget.
func (s SLOSpec) Threshold() time.Duration {
	ms := s.StartupMS
	if ms == 0 {
		ms = sloClasses[s.Class]
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// ParseSpec reads and validates a JSON workload spec. Unknown fields
// are rejected, so typos fail loudly instead of silently defaulting.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseSpecFile reads and validates a JSON workload spec from a file.
func ParseSpecFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load: spec: %w", err)
	}
	defer f.Close()
	return ParseSpec(f)
}

// Validate checks the spec and fills defaults in place. Errors name the
// offending class and field.
func (s *Spec) Validate() error {
	if len(s.Classes) == 0 {
		return fmt.Errorf("%w: no classes", ErrBadSpec)
	}
	seen := make(map[string]bool, len(s.Classes))
	for i := range s.Classes {
		c := &s.Classes[i]
		label := fmt.Sprintf("class[%d]", i)
		if c.Name != "" {
			label = fmt.Sprintf("class %q", c.Name)
		}
		if c.Name == "" {
			return fmt.Errorf("%w: %s: name: missing", ErrBadSpec, label)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: %s: name: duplicate", ErrBadSpec, label)
		}
		seen[c.Name] = true
		if err := c.Arrival.validate(); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrBadSpec, label, err)
		}
		var err error
		if c.Viewing, err = c.Viewing.Validate(); err != nil {
			return fmt.Errorf("%w: %s: viewing: %v", ErrBadSpec, label, err)
		}
		if err := c.SLO.validate(); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrBadSpec, label, err)
		}
		if c.ZipfAlpha == 0 {
			c.ZipfAlpha = 0.73
		}
		if c.ZipfAlpha < 0 || math.IsNaN(c.ZipfAlpha) || math.IsInf(c.ZipfAlpha, 0) {
			return fmt.Errorf("%w: %s: zipf_alpha = %v, want finite >= 0", ErrBadSpec, label, c.ZipfAlpha)
		}
	}
	return nil
}

func (a *ArrivalSpec) validate() error {
	switch a.Process {
	case "poisson":
		if a.Rate <= 0 || math.IsNaN(a.Rate) || math.IsInf(a.Rate, 0) {
			return fmt.Errorf("arrival.rate = %v, want finite > 0", a.Rate)
		}
	case "trace":
		// Times come from the replayed trace; no parameters to check.
	case "onoff":
		if a.Sources <= 0 {
			return fmt.Errorf("arrival.sources = %d, want > 0", a.Sources)
		}
		if a.PeakHz <= 0 || math.IsNaN(a.PeakHz) || math.IsInf(a.PeakHz, 0) {
			return fmt.Errorf("arrival.peak_rate = %v, want finite > 0", a.PeakHz)
		}
		if a.OnShape == 0 {
			a.OnShape = 1.5
		}
		if a.OffShape == 0 {
			a.OffShape = 1.5
		}
		if a.MeanOn == 0 {
			a.MeanOn = 1
		}
		if a.MeanOff == 0 {
			a.MeanOff = 4
		}
		if a.OnShape <= 1 {
			return fmt.Errorf("arrival.on_shape = %v, want > 1 (finite mean)", a.OnShape)
		}
		if a.OffShape <= 1 {
			return fmt.Errorf("arrival.off_shape = %v, want > 1 (finite mean)", a.OffShape)
		}
		if a.MeanOn <= 0 || math.IsNaN(a.MeanOn) {
			return fmt.Errorf("arrival.mean_on = %v, want > 0", a.MeanOn)
		}
		if a.MeanOff <= 0 || math.IsNaN(a.MeanOff) {
			return fmt.Errorf("arrival.mean_off = %v, want > 0", a.MeanOff)
		}
	case "":
		return fmt.Errorf("arrival.process: missing (want poisson, trace or onoff)")
	default:
		return fmt.Errorf("arrival.process = %q, want poisson, trace or onoff", a.Process)
	}
	return nil
}

func (s *SLOSpec) validate() error {
	if s.Class == "" && s.StartupMS == 0 {
		return fmt.Errorf("slo: missing (set slo.class or slo.startup_ms)")
	}
	if s.Class != "" {
		if _, ok := sloClasses[s.Class]; !ok {
			return fmt.Errorf("slo.class = %q, want interactive, standard or relaxed", s.Class)
		}
	}
	if s.StartupMS < 0 || math.IsNaN(s.StartupMS) || math.IsInf(s.StartupMS, 0) {
		return fmt.Errorf("slo.startup_ms = %v, want finite >= 0", s.StartupMS)
	}
	return nil
}

// process builds a synthetic class's arrival Process with every rate
// scaled by rateScale (the ramp-sweep offered-load multiplier).
func (c *Class) process(rateScale float64) Process {
	if c.Arrival.Process == "onoff" {
		o := c.Arrival.OnOff
		o.PeakHz *= rateScale
		return o
	}
	return Poisson{RateHz: c.Arrival.Rate * rateScale}
}

// UsesTrace reports whether any class replays trace timestamps (the
// schedule builder then requires a trace).
func (s *Spec) UsesTrace() bool {
	for i := range s.Classes {
		if s.Classes[i].Arrival.Process == "trace" {
			return true
		}
	}
	return false
}

// SingleClass returns the spec a flag-driven loadgen invocation implies:
// one "default" class with a Poisson arrival at rateHz, full viewing,
// Table 1 popularity skew, and an explicit startup-delay budget.
func SingleClass(rateHz, sloMS float64) *Spec {
	return &Spec{Classes: []Class{{
		Name:    "default",
		Arrival: ArrivalSpec{Process: "poisson", Rate: rateHz},
		SLO:     SLOSpec{StartupMS: sloMS},
	}}}
}
