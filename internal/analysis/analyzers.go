package analysis

// All returns the full mediavet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Shardlock}
}
