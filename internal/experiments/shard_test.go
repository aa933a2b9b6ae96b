package experiments

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"streamcache/internal/core"
	"streamcache/internal/sim"
)

func TestParseShard(t *testing.T) {
	cases := []struct {
		in   string
		want Shard
		ok   bool
	}{
		{"", Shard{}, true},
		{"0/1", Shard{0, 1}, true},
		{"0/2", Shard{0, 2}, true},
		{"1/2", Shard{1, 2}, true},
		{"4/5", Shard{4, 5}, true},
		{"2/2", Shard{}, false},  // index out of range
		{"-1/2", Shard{}, false}, // negative index
		{"0/0", Shard{}, false},  // zero count
		{"1", Shard{}, false},    // no slash
		{"a/b", Shard{}, false},  // not numeric
	}
	for _, c := range cases {
		got, err := ParseShard(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseShard(%q) accepted, want error", c.in)
		}
	}
}

// round is one round of a plan as the engine evaluated it: its first
// global index and its points.
type round struct {
	base int
	pts  []planPoint
}

// streamedRounds streams key at s and returns its rounds in order, as
// evalRound saw them.
func streamedRounds(t *testing.T, key string, s Scale) []round {
	t.Helper()
	e, ok := ExperimentByKey(key)
	if !ok {
		t.Fatalf("unknown experiment %q", key)
	}
	if s.Arena == nil {
		s.Arena = sim.NewArena()
	}
	p, err := e.build(s)
	if err != nil {
		t.Fatal(err)
	}
	x := exec{Scale: s, table: p.meta.Name}
	var rounds []round
	discard := func(MetricRow) error { return nil }
	if _, err := p.run(x, func(pts []planPoint, base int, source string) ([]sample, error) {
		rounds = append(rounds, round{base, pts})
		return evalRound(x, pts, base, p.refine != nil, source, discard)
	}); err != nil {
		t.Fatal(err)
	}
	return rounds
}

// ownedIndices returns the ascending global indices sh owns of the
// rounds streamed at s, round by round.
func ownedIndices(t *testing.T, s Scale, rounds []round, sh Shard) []int {
	t.Helper()
	s.Shard = sh
	var owned []int
	for _, r := range rounds {
		own, err := s.owned(r.pts, r.base)
		if err != nil {
			t.Fatal(err)
		}
		for i, own := range own {
			if own {
				owned = append(owned, r.base+i)
			}
		}
	}
	return owned
}

// TestShardOwnershipPartitions: every point of a round is owned by
// exactly one shard. Points the figure set does not hold are dealt
// within their round: points with no group round robin from the round's
// base, the points of one share key to one shard, each group to the
// shard with the fewest points so far, a tie to the first from its turn
// of the round robin on. A point the set holds goes to its unit's owner
// wherever it sits, and moves none of the others.
func TestShardOwnershipPartitions(t *testing.T) {
	flat := func(p core.Policy, pct float64) planPoint {
		return planPoint{cfg: &sim.HierarchyConfig{Config: sim.Config{Policy: p, CacheBytes: int64(pct * 1e9)}}}
	}
	pb, ib := core.NewPB(), core.NewIB()
	single := make([]planPoint, 17)
	// PB's three sizes are one unit, IB's two another; the static rows
	// between them are units of their own.
	grouped := []planPoint{flat(pb, 1), {}, flat(pb, 2), flat(ib, 1), {}, flat(pb, 3), flat(ib, 2), {}}
	s := tinyScale()
	figure5 := streamedRounds(t, "figure5", s)[0].pts
	// The set holds figure5's first point, a unit the deal gives to
	// shard held[count].
	withHeld := append(slices.Clip(grouped), figure5[0])
	held := map[int]int{}
	for _, count := range []int{2, 3} {
		s.Shard.Count = count
		d, err := s.deal()
		if err != nil {
			t.Fatal(err)
		}
		held[count] = d.owner[d.units.Of([]sim.HierarchyConfig{*figure5[0].cfg})[0]]
	}
	for _, tc := range []struct {
		pts   []planPoint
		base  int
		count int
		want  []int // nil: index mod count
	}{
		{single, 0, 1, nil},
		{single, 0, 2, nil},
		{single, 7, 5, nil},
		{grouped, 0, 2, []int{0, 1, 0, 1, 1, 0, 1, 0}},
		{grouped, 1, 2, []int{1, 0, 1, 0, 0, 1, 0, 1}},
		{grouped, 0, 3, []int{0, 1, 0, 2, 1, 0, 2, 1}},
		{grouped, 2, 3, []int{2, 0, 2, 1, 0, 2, 1, 0}},
		{withHeld, 0, 2, []int{0, 1, 0, 1, 1, 0, 1, 0, held[2]}},
		{withHeld, 2, 3, []int{2, 0, 2, 1, 0, 2, 1, 0, held[3]}},
	} {
		for idx := 0; idx < tc.count; idx++ {
			s.Shard = Shard{Index: idx, Count: tc.count}
			owned, err := s.owned(tc.pts, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			for i, own := range owned {
				want := (tc.base + i) % tc.count
				if tc.want != nil {
					want = tc.want[i]
				}
				if own != (want == idx) {
					t.Errorf("base %d, %d shards: shard %d owns point %d = %v, want it owned by shard %d", tc.base, tc.count, idx, i, own, want)
				}
			}
		}
	}
}

// TestDealWeightsIsGreedy: the set-wide deal gives each unit, in order,
// to the shard with the least weight so far, a tie to the first tied
// shard from the unit's turn of the round robin on — so units of equal
// weight are dealt round robin, and a heavy unit is balanced by the
// light ones after it.
func TestDealWeightsIsGreedy(t *testing.T) {
	for _, tc := range []struct {
		weight []int64
		count  int
		owner  []int
		load   []int64
	}{
		{[]int64{2, 2, 2, 2, 2}, 2, []int{0, 1, 0, 1, 0}, []int64{6, 4}},
		{[]int64{1, 1, 4, 1, 1}, 2, []int{0, 1, 0, 1, 1}, []int64{5, 3}},
		{[]int64{5, 1, 1, 1, 1, 1}, 2, []int{0, 1, 1, 1, 1, 1}, []int64{5, 5}},
		{[]int64{3, 1, 1, 1, 2, 2}, 3, []int{0, 1, 2, 1, 2, 1}, []int64{3, 4, 3}},
	} {
		owner, load := dealWeights(tc.weight, tc.count)
		if !slices.Equal(owner, tc.owner) || !slices.Equal(load, tc.load) {
			t.Errorf("dealWeights(%v, %d) = %v, %v; want %v, %v", tc.weight, tc.count, owner, load, tc.owner, tc.load)
		}
	}
}

func TestScaleRejectsBadShard(t *testing.T) {
	s := tinyScale()
	s.Shard = Shard{Index: 3, Count: 2}
	if _, err := tableOf("figure5")(s); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// shardJSONL streams one experiment shard into JSONL bytes.
func shardJSONL(t *testing.T, key string, s Scale, sh Shard) []byte {
	t.Helper()
	s.Shard = sh
	var buf bytes.Buffer
	if err := Stream(key, s, NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardUnionByteIdentical is the sharding acceptance contract: for
// Shard.Count in {1, 2, 5} and Parallelism in {1, 8}, merging the
// per-shard JSONL outputs reproduces the exact CSV and JSONL bytes of
// the unsharded single-process stream. Covers a fixed grid (figure5),
// the scenario matrix (stateful estimators), and an adaptive refinement
// sweep (refined-e), whose refinement decisions must not depend on
// which shard emits which row.
func TestShardUnionByteIdentical(t *testing.T) {
	for _, key := range []string{"figure5", "scenarios", "refined-e", "refined-esigma"} {
		t.Run(key, func(t *testing.T) {
			base := tinyScale()
			base.RefineBudget = 3
			var wantCSV, wantJSONL bytes.Buffer
			if err := Stream(key, base, MultiSink{NewCSVSink(&wantCSV), NewJSONLSink(&wantJSONL)}); err != nil {
				t.Fatal(err)
			}

			for _, count := range []int{1, 2, 5} {
				for _, par := range []int{1, 8} {
					t.Run(fmt.Sprintf("count%d_par%d", count, par), func(t *testing.T) {
						s := tinyScale()
						s.RefineBudget = 3
						s.Parallelism = par
						parts := make([]io.Reader, 0, count)
						for idx := 0; idx < count; idx++ {
							b := shardJSONL(t, key, s, Shard{Index: idx, Count: count})
							parts = append(parts, bytes.NewReader(b))
						}
						var gotCSV, gotJSONL bytes.Buffer
						if err := MergeShards(parts, MultiSink{NewCSVSink(&gotCSV), NewJSONLSink(&gotJSONL)}); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
							t.Errorf("merged CSV differs from unsharded stream:\n%s\nwant:\n%s",
								gotCSV.String(), wantCSV.String())
						}
						if !bytes.Equal(gotJSONL.Bytes(), wantJSONL.Bytes()) {
							t.Errorf("merged JSONL differs from unsharded stream")
						}
					})
				}
			}
		})
	}
}

// TestMergeShardsValidation exercises the merge's own policy on top of
// the shared row-log engine: a duplicate row is an error, the union must
// be one gap-free table. (What counts as a duplicate or a gap is tabled
// in rowlog's TestSetApply; malformed lines in collect's
// TestMalformedLinesRejectedEverywhere.)
func TestMergeShardsValidation(t *testing.T) {
	table := `{"type":"table","name":"T","header":["x"]}` + "\n"
	row := func(i int) string {
		return fmt.Sprintf(`{"type":"row","table":"T","index":%d,"row":["%d"]}`+"\n", i, i)
	}
	merge := func(parts ...string) error {
		in := make([]io.Reader, len(parts))
		for i, p := range parts {
			in[i] = strings.NewReader(p)
		}
		return MergeShards(in, &TableSink{})
	}

	if err := merge(table+row(0)+row(2), table+row(1)); err != nil {
		t.Errorf("complete merge rejected: %v", err)
	}
	if err := merge(); err == nil {
		t.Error("zero parts accepted")
	}
	if err := merge(table+row(0), table+row(0)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("cross-shard duplicate not caught: %v", err)
	}
	if err := merge(table + row(0) + row(2)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("gap not caught: %v", err)
	}
	if err := merge(table+row(0), table+`{"type":"row","table":"T","index":1,"row":["1","extra"]}`+"\n"); err == nil ||
		!strings.Contains(err.Error(), `shard 1: rowlog: line 2: rowlog: row 1 of table "T" has 2 cells, its header declares 1`) {
		t.Errorf("ragged row not caught with its shard, line, table and index named: %v", err)
	}
	if err := merge(table, `{"type":"table","name":"U","header":["x"]}`+"\n"); err == nil {
		t.Error("table mismatch not caught")
	}
	if err := merge(table + row(0) + `{"type":"row","table":"T","ind`); err == nil || !strings.Contains(err.Error(), "cut short") {
		t.Errorf("shard output cut mid-record not caught: %v", err)
	}
	// Journal fingerprint stamps are tolerated (journals are merge inputs
	// too).
	if err := merge(`{"type":"journal","fingerprint":"f"}` + "\n" + table + row(0)); err != nil {
		t.Errorf("journal stamp rejected: %v", err)
	}
}
