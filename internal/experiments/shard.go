package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Sharded execution: a sweep's rows carry stable global indices (their
// position in the unsharded deterministic stream), and a Shard selects
// the subset of indices one process computes. Round-robin assignment
// (index mod Count) keeps every shard's load balanced across the grid's
// slow and fast regions, and because assignment is a pure function of
// the index, the union of the shards' outputs is bit-identical to the
// unsharded stream for any Shard.Count — the multi-process analogue of
// the Parallelism guarantee. MergeShards reassembles the union.

// Shard identifies one of Count cooperating sweep processes. The zero
// value (and Count <= 1) means unsharded: this process owns every row.
// Index is zero-based.
type Shard struct {
	Index int
	Count int
}

// owns reports whether this shard computes the row at the given global
// index.
func (sh Shard) owns(index int) bool {
	return sh.Count <= 1 || index%sh.Count == sh.Index
}

func (sh Shard) validate() error {
	if sh.Count < 0 || sh.Index < 0 {
		return fmt.Errorf("%w: shard %d/%d", ErrBadScale, sh.Index, sh.Count)
	}
	if sh.Count > 0 && sh.Index >= sh.Count {
		return fmt.Errorf("%w: shard index %d outside 0..%d", ErrBadScale, sh.Index, sh.Count-1)
	}
	return nil
}

// String renders the shard in the CLI's "index/count" form.
func (sh Shard) String() string {
	if sh.Count <= 1 {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", sh.Index, sh.Count)
}

// ParseShard parses the "-shard index/count" CLI form (zero-based
// index, e.g. "0/2" and "1/2" for a two-way split). The empty string
// means unsharded.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	idxStr, cntStr, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("experiments: shard %q not in index/count form", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
	if err != nil {
		return Shard{}, fmt.Errorf("experiments: bad shard index in %q: %w", s, err)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(cntStr))
	if err != nil {
		return Shard{}, fmt.Errorf("experiments: bad shard count in %q: %w", s, err)
	}
	sh := Shard{Index: idx, Count: cnt}
	if cnt < 1 {
		return Shard{}, fmt.Errorf("experiments: shard count %d < 1 in %q", cnt, s)
	}
	if err := sh.validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}
