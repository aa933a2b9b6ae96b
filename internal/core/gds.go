package core

// This file implements the GreedyDual-Size family of baselines. The
// paper's related-work section builds on Cao & Irani's cost-aware
// GreedyDual-Size and the authors' own popularity-aware variant (Jin &
// Bestavros, ICDCS 2000 [17]); they are the strongest classical
// whole-object baselines to compare the network-aware policies against.
//
// GreedyDual-Size keys each object with H = L + cost/size, where L is a
// global inflation value raised to the utility of each evicted entry, so
// stale entries age out. The popularity-aware variant weighs H by the
// observed frequency. With the network retrieval cost (size/bandwidth),
// the popularity-aware key becomes L + F/b - exactly the paper's
// bandwidth-based utility plus aging, which makes the comparison
// sharp. The policies here are comparable values like every other
// built-in policy: Utility is the cost/size term, and the Cache that
// uses one keeps L (see Ages).

// gdsPolicy implements GreedyDual-Size with optional popularity
// weighting. The retrieval cost is 1, or size/bandwidth with
// networkCost.
type gdsPolicy struct {
	name        string
	networkCost bool
	popularity  bool
}

// NewGDS returns classic GreedyDual-Size with uniform retrieval cost
// (H = L + 1/size): optimizes object hit ratio.
func NewGDS() Policy { return gdsPolicy{name: "GDS"} }

// NewGDSBandwidth returns GreedyDual-Size with the network retrieval
// cost size/bandwidth (H = L + 1/b): favors objects behind slow paths.
func NewGDSBandwidth() Policy { return gdsPolicy{name: "GDS-BW", networkCost: true} }

// NewGDSP returns the popularity-aware GreedyDual-Size of Jin &
// Bestavros [17] with the network retrieval cost (H = L + F/b).
func NewGDSP() Policy { return gdsPolicy{name: "GDSP-BW", networkCost: true, popularity: true} }

// Ages reports whether p is of the GreedyDual-Size family, whose keys a
// Cache ages: it adds its inflation value L to p's utility and raises L
// on every eviction. An aging cache's state depends on its eviction
// history, which is why the capacity pass of internal/sim refuses it.
func Ages(p Policy) bool {
	_, ok := p.(gdsPolicy)
	return ok
}

func (p gdsPolicy) Name() string { return p.name }

func (p gdsPolicy) Utility(st AccessStats, obj Object, bw float64) float64 {
	if obj.Size <= 0 {
		return 0
	}
	cost := 1.0
	if p.networkCost {
		cost = float64(obj.Size) / effBW(bw)
	}
	h := cost / float64(obj.Size)
	if p.popularity {
		h *= float64(st.Freq)
	}
	return h
}

// Target caches whole objects: GDS is an integral policy.
func (p gdsPolicy) Target(obj Object, _ float64) int64 { return obj.Size }

// ReadsBandwidth reports whether p's Utility or Target may read its
// bandwidth argument: IF, LFU and LRU do not, so internal/sim scores
// them under the oracle whatever estimator a configuration names.
func ReadsBandwidth(p Policy) bool {
	switch p.(type) {
	case frequencyPolicy, lruPolicy:
		return false
	}
	return true
}

// Ranker returns p with every field its Utility does not read zeroed:
// a hybrid without its e (PB, IB and every hybrid between them rank by
// F/b; e sets only the target), IF and LFU without their names. Two
// policies with equal Rankers rank every access alike, which is what
// lets internal/sim sort one tape's utilities once for all of them.
func Ranker(p Policy) Policy {
	switch p := p.(type) {
	case frequencyPolicy:
		return frequencyPolicy{}
	case hybridPolicy:
		return hybridPolicy{}
	case hybridVPolicy:
		return hybridVPolicy{e: p.e}
	}
	return p
}
