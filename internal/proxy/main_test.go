package proxy

import (
	"flag"
	"os"
	"sync/atomic"
	"testing"
)

// recycled counts the segments that went back to segPool.
var recycled atomic.Int64

// TestMain runs every test of the package with recycled segments
// poisoned: whatever still aliases a segment after its last reference
// is gone reads 0xDB where a digest or a byte comparison expects the
// object's pseudo-random content, and under -race the fill is a write
// the detector sets against the stale read. The benchmarks skip the
// fill, not the count.
func TestMain(m *testing.M) {
	flag.Parse()
	poison := flag.Lookup("test.bench").Value.String() == ""
	RecycleHook = func(buf []byte) {
		recycled.Add(1)
		if poison {
			for i := range buf {
				buf[i] = 0xDB
			}
		}
	}
	os.Exit(m.Run())
}
