package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadPolicy reports an invalid policy construction.
var ErrBadPolicy = errors.New("core: invalid policy")

// Policy decides how valuable an object is to the cache and how many
// prefix bytes it should occupy, given the current access statistics and
// the estimated bandwidth b (bytes/s) of the path to the object's origin
// server. A Policy is a value: Utility and Target are pure functions of
// their arguments, so one instance may serve any number of caches. Every
// built-in policy is also comparable: two constructions with the same
// parameters are ==, which is what lets internal/sim recognise one
// configuration across tables. internal/sim refuses a policy that is
// not comparable.
type Policy interface {
	// Name identifies the policy (IF, PB, IB, ...).
	Name() string
	// Utility returns the eviction priority key; entries with the
	// lowest utility are evicted first.
	Utility(st AccessStats, obj Object, bw float64) float64
	// Target returns the desired cached prefix size in bytes; the cache
	// clamps it to [0, obj.Size]. A zero target means "do not cache".
	Target(obj Object, bw float64) int64
}

// minBW guards divisions by tiny or unknown bandwidth estimates (1 B/s).
const minBW = 1.0

func effBW(bw float64) float64 {
	if bw < minBW || math.IsNaN(bw) {
		return minBW
	}
	return bw
}

// frequencyPolicy implements IF and LFU: utility is the observed request
// frequency, and whole objects are cached. "The first algorithm caches
// those objects with the highest request arrival rates and only allows
// whole objects to be cached" (Section 4.1).
type frequencyPolicy struct {
	name string
}

// NewIF returns the Integral Frequency-based policy.
func NewIF() Policy { return frequencyPolicy{name: "IF"} }

// NewLFU returns the Least Frequently Used baseline, operationally
// identical to IF (Section 3.3 groups LRU/LFU as frequency-only
// algorithms that ignore network bandwidth).
func NewLFU() Policy { return frequencyPolicy{name: "LFU"} }

func (p frequencyPolicy) Name() string { return p.name }

func (p frequencyPolicy) Utility(st AccessStats, _ Object, _ float64) float64 {
	return float64(st.Freq)
}

func (p frequencyPolicy) Target(obj Object, _ float64) int64 { return obj.Size }

// lruPolicy evicts the least recently used object and caches whole
// objects.
type lruPolicy struct{}

// NewLRU returns the Least Recently Used baseline.
func NewLRU() Policy { return lruPolicy{} }

func (lruPolicy) Name() string { return "LRU" }

func (lruPolicy) Utility(st AccessStats, _ Object, _ float64) float64 {
	return st.LastAccess
}

func (lruPolicy) Target(obj Object, _ float64) int64 { return obj.Size }

// hybridPolicy is the bandwidth-based family. The under-estimation
// factor E interpolates between the paper's PB (E=1) and IB (E=0)
// algorithms: caching decisions use the conservative bandwidth estimate
// E*b, so the prefix target is (r - E*b)*T clamped to [0, S]
// (Section 2.5, swept in Figures 9 and 12).
type hybridPolicy struct {
	name string
	e    float64
}

// NewPB returns the Partial Bandwidth-based policy of Sections 2.3-2.4:
// objects whose bit-rate is below the measured bandwidth are not cached;
// otherwise the prefix target is (r_i - b_i)T_i and the utility is
// F_i/b_i.
func NewPB() Policy { return hybridPolicy{name: "PB", e: 1} }

// NewIB returns the Integral Bandwidth-based policy of Section 2.5: the
// most conservative heuristic, caching whole objects with the highest
// F_i/b_i ratio.
func NewIB() Policy { return hybridPolicy{name: "IB", e: 0} }

// NewHybrid returns the estimator-e policy with e in [0, 1]; e=0 behaves
// as IB, e=1 as PB.
func NewHybrid(e float64) (Policy, error) {
	if e < 0 || e > 1 || math.IsNaN(e) {
		return nil, fmt.Errorf("%w: hybrid e=%v, want in [0,1]", ErrBadPolicy, e)
	}
	return hybridPolicy{name: fmt.Sprintf("Hybrid(e=%.2f)", e), e: e}, nil
}

func (p hybridPolicy) Name() string { return p.name }

func (p hybridPolicy) Utility(st AccessStats, _ Object, bw float64) float64 {
	return float64(st.Freq) / effBW(bw)
}

func (p hybridPolicy) Target(obj Object, bw float64) int64 {
	conservative := float64(p.e * effBW(bw))
	if obj.Rate <= conservative {
		return 0 // abundant bandwidth: no need to cache (Section 2.4)
	}
	// Round up so the cached prefix fully covers the bandwidth deficit.
	target := int64(math.Ceil((obj.Rate - conservative) * obj.Duration))
	if target > obj.Size {
		target = obj.Size
	}
	if target < 0 {
		target = 0
	}
	return target
}

// NewPBV returns Partial Bandwidth-Value-based caching (Section 2.6):
// cache the deficit [T_i r_i - T_i b_i]+ of objects with the highest
// F_i V_i / (T_i r_i - T_i b_i) ratio, so that requests can be served
// immediately and earn their value. It is the e=1 end of the value
// family, as PB is of the bandwidth family.
func NewPBV() Policy { return hybridVPolicy{name: "PB-V", e: 1} }

// ibvPolicy is Integral Bandwidth-Value-based caching (Section 2.6):
// whole objects with the highest F_i V_i / (T_i r_i b_i) ratio, giving
// preference to objects with lower bandwidth, higher value, and smaller
// size.
type ibvPolicy struct{}

// NewIBV returns the IB-V policy.
func NewIBV() Policy { return ibvPolicy{} }

func (ibvPolicy) Name() string { return "IB-V" }

func (ibvPolicy) Utility(st AccessStats, obj Object, bw float64) float64 {
	denom := float64(obj.Size) * effBW(bw)
	if denom <= 0 {
		return 0
	}
	return float64(st.Freq) * obj.Value / denom
}

func (ibvPolicy) Target(obj Object, _ float64) int64 { return obj.Size }

// hybridVPolicy is the value family: PB-V (E=1) and, with the same
// under-estimation factor E used by Hybrid, the policies Figure 12
// sweeps between it and whole-object caching (E=0).
type hybridVPolicy struct {
	name string
	e    float64
}

// NewHybridV returns the value-objective estimator-e policy: caching
// decisions use the conservative bandwidth E*b in the PB-V target and
// utility. e=1 is exactly PB-V; e=0 caches whole objects.
func NewHybridV(e float64) (Policy, error) {
	if e < 0 || e > 1 || math.IsNaN(e) {
		return nil, fmt.Errorf("%w: hybrid-v e=%v, want in [0,1]", ErrBadPolicy, e)
	}
	return hybridVPolicy{name: fmt.Sprintf("HybridV(e=%.2f)", e), e: e}, nil
}

func (p hybridVPolicy) Name() string { return p.name }

func (p hybridVPolicy) Utility(st AccessStats, obj Object, bw float64) float64 {
	deficit := float64(obj.Size) - float64(obj.Duration*p.e*effBW(bw))
	if deficit <= 0 {
		return 0 // nothing to cache; never competes for space
	}
	return float64(st.Freq) * obj.Value / deficit
}

func (p hybridVPolicy) Target(obj Object, bw float64) int64 {
	deficit := float64(obj.Size) - float64(obj.Duration*p.e*effBW(bw))
	if deficit <= 0 {
		return 0
	}
	// Round up: a prefix even one byte short of the deficit earns no value.
	target := int64(math.Ceil(deficit))
	if target > obj.Size {
		target = obj.Size
	}
	return target
}

// PolicyByName constructs a policy from its short name; hybrid policies
// take the estimator through the e parameter (ignored by the others).
// Recognized names: IF, PB, IB, PB-V, IB-V, LRU, LFU, HYBRID, HYBRID-V,
// GDS, GDS-BW, GDSP.
func PolicyByName(name string, e float64) (Policy, error) {
	switch name {
	case "IF":
		return NewIF(), nil
	case "PB":
		return NewPB(), nil
	case "IB":
		return NewIB(), nil
	case "PB-V", "PBV":
		return NewPBV(), nil
	case "IB-V", "IBV":
		return NewIBV(), nil
	case "LRU":
		return NewLRU(), nil
	case "LFU":
		return NewLFU(), nil
	case "HYBRID", "Hybrid":
		return NewHybrid(e)
	case "HYBRID-V", "HybridV":
		return NewHybridV(e)
	case "GDS":
		return NewGDS(), nil
	case "GDS-BW", "GDSBW":
		return NewGDSBandwidth(), nil
	case "GDSP", "GDSP-BW":
		return NewGDSP(), nil
	default:
		return nil, fmt.Errorf("%w: unknown policy %q", ErrBadPolicy, name)
	}
}
