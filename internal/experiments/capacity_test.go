package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"streamcache/internal/sim"
)

// TestFigure5CapacityPasses pins which of figure5's cache-size groups
// one tape pass scores at small scale: PB's and IB's, while IF's
// integer utilities tie on every run seed, so each falls back; every
// point still counts as one evaluation. Adaptive plans and the
// hierarchy group nothing.
func TestFigure5CapacityPasses(t *testing.T) {
	s := SmallScale()
	s.Arena, s.Counters = sim.NewArena(), &Counters{}
	var ts TableSink
	if err := Stream("figure5", s, &ts); err != nil {
		t.Fatal(err)
	}
	c := s.Counters
	if p, f, e := c.CapacityPasses.Load(), c.CapacityFallbacks.Load(), c.Evaluations.Load(); p != 2 || f != int64(s.Runs) || e != 15 {
		t.Errorf("figure5: passes=%d fallbacks=%d evaluations=%d, want 2 (PB, IB), %d (IF's seeds) and 15", p, f, e, s.Runs)
	}
	for _, key := range []string{"refined-cache", "hierarchy"} {
		s := tinyScale()
		s.Counters = &Counters{}
		if err := Stream(key, s, &ts); err != nil {
			t.Fatal(err)
		}
		if p, f := s.Counters.CapacityPasses.Load(), s.Counters.CapacityFallbacks.Load(); p != 0 || f != 0 {
			t.Errorf("%s: passes=%d fallbacks=%d, want none", key, p, f)
		}
	}
}

// TestCapacityGroupsHoldOwnedRows: a shard groups only the rows it
// owns — shard 0 of 2 owns two cache sizes of each of figure5's
// policies here — and a resumed shard only the rows its journal lacks;
// either way the merged journals are the unsharded stream, byte for
// byte.
func TestCapacityGroupsHoldOwnedRows(t *testing.T) {
	const key = "figure5"
	base := tinyScale()
	base.CacheFractions = []float64{0.005, 0.02, 0.05, 0.1}
	var want bytes.Buffer
	if err := Stream(key, base, NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := make([]io.Reader, 2)
	for idx := range in {
		s := base
		s.Shard = Shard{Index: idx, Count: 2}
		s.Counters = &Counters{}
		path := filepath.Join(dir, "journal-"+strconv.Itoa(idx)+".jsonl")
		journaledStream(t, key, s, path, false)
		if p, f := s.Counters.CapacityPasses.Load(), s.Counters.CapacityFallbacks.Load(); p != 2 || f != 1 {
			t.Errorf("shard %d: passes=%d fallbacks=%d, want PB's and IB's 2 and IF's 1", idx, p, f)
		}
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		journaledStream(t, key, s, path, true)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		in[idx] = f
	}
	var got bytes.Buffer
	if err := MergeShards(in, NewCSVSink(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("merged resumed shards differ from the unsharded stream:\n%s\nwant:\n%s", got.String(), want.String())
	}
}
