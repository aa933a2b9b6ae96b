package proxy

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestPrefixStoreMatchesFlatModel drives the segmented store and a
// trivial one-[]byte-per-object reference model through the same random
// operation sequence and demands byte-identical state throughout. This
// pins the segmented rewrite to the exact semantics of the original
// flat store: overlap dedup, gap drop, limit clip, truncation — and
// adopt to the same semantics as AppendAt of the segment's bytes.
func TestPrefixStoreMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewPrefixStore()
	model := map[int][]byte{}

	modelAppend := func(id int, offset int64, data []byte, limit int64) int64 {
		cur := model[id]
		curLen := int64(len(cur))
		if offset > curLen {
			return 0
		}
		skip := curLen - offset
		if skip >= int64(len(data)) {
			return 0
		}
		data = data[skip:]
		room := limit - curLen
		if room <= 0 {
			return 0
		}
		take := int64(len(data))
		if take > room {
			take = room
		}
		model[id] = append(cur, data[:take]...)
		return take
	}
	modelTruncate := func(id int, n int64) {
		cur, ok := model[id]
		if !ok {
			return
		}
		if n <= 0 {
			delete(model, id)
			return
		}
		if n < int64(len(cur)) {
			model[id] = cur[:n]
		}
	}

	const nIDs = 8
	const limit = 5 * segmentSize
	for op := 0; op < 4000; op++ {
		id := rng.Intn(nIDs)
		switch rng.Intn(5) {
		case 0, 1: // append, biased contiguous but sometimes gapped/overlapped
			cur := int64(len(model[id]))
			offset := cur + int64(rng.Intn(3*segmentSize)) - int64(rng.Intn(3*segmentSize))
			if offset < 0 {
				offset = 0
			}
			n := rng.Intn(3*segmentSize) + 1
			data := Content(id, offset, int64(n))
			got := s.AppendAt(id, offset, data, limit)
			want := modelAppend(id, offset, data, limit)
			if got != want {
				t.Fatalf("op %d: AppendAt(id=%d, off=%d, n=%d) retained %d, model %d", op, id, offset, n, got, want)
			}
		case 4: // adopt a relay's segment, in two steps as its fetch fills it
			cur := int64(len(model[id]))
			offset := max(0, cur+int64(rng.Intn(segmentSize))-int64(rng.Intn(2*segmentSize)))
			seg := newSegment(offset, int64(rng.Intn(segmentSize)+1))
			copy(seg.buf, Content(id, offset, int64(len(seg.buf))))
			for _, end := range []int64{offset + int64(rng.Intn(len(seg.buf))+1), seg.end()} {
				s.adopt(id, seg, end, limit)
				modelAppend(id, offset, seg.buf[:end-offset], limit)
				if got, want := s.Len(id), int64(len(model[id])); got != want {
					t.Fatalf("op %d: adopt(id=%d, off=%d, end=%d) left %d bytes, model %d", op, id, offset, end, got, want)
				}
			}
		case 2: // truncate, including mid-segment cuts and full deletes
			n := int64(rng.Intn(int(limit)+segmentSize)) - segmentSize/2
			s.Truncate(id, n)
			modelTruncate(id, n)
		case 3: // read back and compare
			if got, want := s.Prefix(id), model[id]; !bytes.Equal(got, want) {
				t.Fatalf("op %d: Prefix(%d) = %d bytes, model %d bytes, diverged", op, id, len(got), len(want))
			}
		}
		if got, want := s.Len(id), int64(len(model[id])); got != want {
			t.Fatalf("op %d: Len(%d) = %d, model %d", op, id, got, want)
		}
	}
	// Final full sweep.
	for id := 0; id < nIDs; id++ {
		if got, want := s.Prefix(id), model[id]; !bytes.Equal(got, want) {
			t.Fatalf("final: Prefix(%d) diverged from model", id)
		}
	}
	var wantTotal int64
	for _, b := range model {
		wantTotal += int64(len(b))
	}
	if got := s.TotalBytes(); got != wantTotal {
		t.Fatalf("TotalBytes = %d, model %d", got, wantTotal)
	}
}

// TestPrefixStoreTotalBytesRunning pins the satellite fix: the O(1)
// running total must agree with an O(objects) scan after any mix of
// appends, overlap-deduped appends, truncations, and deletions.
func TestPrefixStoreTotalBytesRunning(t *testing.T) {
	s := NewPrefixStore()
	check := func(stage string) {
		t.Helper()
		if got, want := s.TotalBytes(), s.scanTotalBytes(); got != want {
			t.Fatalf("%s: TotalBytes = %d, scan = %d", stage, got, want)
		}
	}
	check("empty")
	s.AppendAt(1, 0, Content(1, 0, 100_000), 1<<20)
	s.AppendAt(2, 0, Content(2, 0, 50_000), 1<<20)
	check("after appends")
	// Overlapping re-append retains nothing and must not inflate total.
	s.AppendAt(1, 0, Content(1, 0, 60_000), 1<<20)
	check("after overlap dedup")
	// Limit clip retains only part of the data.
	s.AppendAt(2, 50_000, Content(2, 50_000, 100_000), 80_000)
	check("after limit clip")
	s.Truncate(1, 30_000)
	check("after mid truncate")
	s.Truncate(2, 0)
	check("after delete")
	if got := s.TotalBytes(); got != 30_000 {
		t.Fatalf("TotalBytes = %d, want 30000", got)
	}
}

// TestPrefixViewStableUnderTruncate pins the aliasing contract that
// makes zero-copy serving safe: a view captured before a truncation
// (and the append that follows it) still reads the exact bytes that
// were published at capture time.
func TestPrefixViewStableUnderTruncate(t *testing.T) {
	s := NewPrefixStore()
	const size = 3*segmentSize + 1234 // tail is mid-segment
	want := Content(7, 0, size)
	s.AppendAt(7, 0, want, size)

	v := s.View(7, size)
	if v.Len() != size {
		t.Fatalf("view length %d, want %d", v.Len(), size)
	}

	// Mutate the store under the live view: cut mid-segment, then grow
	// back with different-offset content so the tail segment would be
	// corrupted if the store recycled or overwrote it.
	const cut = segmentSize + 100
	s.Truncate(7, cut)
	s.AppendAt(7, cut, Content(7, cut, 2*segmentSize), size)

	var got bytes.Buffer
	if _, err := v.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("view bytes changed after concurrent truncate+append")
	}

	// The store itself must serve the new state correctly.
	if fresh := s.Prefix(7); !bytes.Equal(fresh, Content(7, 0, cut+2*segmentSize)) {
		t.Fatal("store content wrong after truncate+append")
	}
}

// TestPrefixViewWritesFromAnyOffset drives the view's one writer over a
// three-segment prefix from every kind of offset a ranged resume can
// name and compares with the flat bytes; WriteTo is the offset-0 case.
func TestPrefixViewWritesFromAnyOffset(t *testing.T) {
	s := NewPrefixStore()
	const n = 2*segmentSize + 1234
	flat := Content(9, 0, n)
	s.AppendAt(9, 0, flat, n)
	v := s.View(9, n)
	if len(v.segs) != 3 {
		t.Fatalf("view spans %d segments, want 3", len(v.segs))
	}
	for _, tc := range []struct {
		name string
		from int64
	}{
		{"start", 0},
		{"mid-segment", segmentSize + 100},
		{"segment boundary", segmentSize},
		{"last byte", n - 1},
		{"end", n},
		{"past end", n + 1},
	} {
		want := flat[min(tc.from, n):]
		var got bytes.Buffer
		wrote, err := v.WriteRangeTo(&got, tc.from)
		if err != nil || wrote != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteRangeTo(%d) wrote %d bytes (err %v), want the %d flat bytes from there", tc.name, tc.from, wrote, err, len(want))
		}
	}
	var whole bytes.Buffer
	if wrote, err := v.WriteTo(&whole); err != nil || wrote != n || !bytes.Equal(whole.Bytes(), flat) {
		t.Errorf("WriteTo wrote %d bytes (err %v), want all %d", wrote, err, n)
	}
}

// TestPrefixStoreSealedTailNotRewritten checks the mechanism behind the
// contract above: after a mid-segment truncation the next append must
// open a fresh segment rather than write into the sealed tail.
func TestPrefixStoreSealedTailNotRewritten(t *testing.T) {
	s := NewPrefixStore()
	s.AppendAt(3, 0, Content(3, 0, 1000), 1<<20)
	var tail0 *segment
	s.state.Read(func(st *storeState) { tail0 = st.data[3].tail() })

	s.Truncate(3, 500)
	s.AppendAt(3, 500, Content(3, 500, 1000), 1<<20)

	var segs []*segment
	s.state.Read(func(st *storeState) { segs = st.data[3].segs })
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2 (sealed tail + fresh)", len(segs))
	}
	if segs[0] != tail0 {
		t.Fatal("first segment identity changed")
	}
	if !bytes.Equal(segs[0].buf[:1000], Content(3, 0, 1000)) {
		t.Fatal("sealed segment's bytes past the cut were rewritten")
	}
	if segs[1].off != 500 {
		t.Fatalf("fresh segment off = %d, want 500", segs[1].off)
	}
	if got := s.Prefix(3); !bytes.Equal(got, Content(3, 0, 1500)) {
		t.Fatal("content wrong after sealed-tail append")
	}
}

// TestPrefixViewClampedHasNoHeader: a view clamped below the stored
// length must not carry the full-length prebuilt header.
func TestPrefixViewClampedHasNoHeader(t *testing.T) {
	s := NewPrefixStore()
	s.AppendAt(4, 0, Content(4, 0, 2000), 1<<20)
	if v := s.View(4, 2000); v.hdr == nil {
		t.Fatal("full view lost its prebuilt header")
	} else if v.hdr[0] != "HIT-PREFIX; bytes=2000" {
		t.Fatalf("header = %q", v.hdr[0])
	}
	if v := s.View(4, 1500); v.hdr != nil {
		t.Fatalf("clamped view kept full-length header %q", v.hdr[0])
	}
}

// TestPrefixHeaderRendersWhereLengthSettles: a relay's adopt calls move
// the length without rendering (the view carries no header meanwhile);
// the Truncate that ends the relay renders it, cut or no cut.
func TestPrefixHeaderRendersWhereLengthSettles(t *testing.T) {
	s := NewPrefixStore()
	seg := newSegment(0, 3000)
	copy(seg.buf, Content(6, 0, 3000))
	for _, end := range []int64{1000, 3000} {
		s.adopt(6, seg, end, 1<<20)
		if v := s.View(6, 1<<20); v.Len() != end || v.hdr != nil {
			t.Fatalf("view of a growing prefix: %d bytes, header %q", v.Len(), v.hdr)
		}
	}
	for _, n := range []int64{3000, 2000} {
		s.Truncate(6, n)
		if v := s.View(6, 1<<20); v.Len() != n || v.hdr == nil || v.hdr[0] != fmt.Sprintf("HIT-PREFIX; bytes=%d", n) {
			t.Fatalf("after Truncate(%d): %d bytes, header %q", n, v.Len(), v.hdr)
		}
	}
}
