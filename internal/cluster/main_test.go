package cluster

import (
	"os"
	"testing"

	"streamcache/internal/proxy"
)

// TestMain runs the cluster tests with recycled segments poisoned, as
// internal/proxy's own tests run: a node that pooled a segment a peer's
// response or a local view still aliased serves 0xDB bytes, and every
// digest check here fails on them.
func TestMain(m *testing.M) {
	proxy.RecycleHook = func(buf []byte) {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	os.Exit(m.Run())
}
