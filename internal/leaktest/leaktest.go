// Package leaktest is the end-of-test check of every proxy and cluster
// test that starts a relay: no upstream transfer is left in flight and
// the goroutine count is back where the test found it.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Node is what the check asks of a proxy.
type Node interface{ InflightRelays() int }

// Start records the goroutine count and registers the check. Call it
// first thing in a test or stack helper, before any server is started:
// cleanups run last-in first-out, so the check then runs after the
// servers have closed. Pass every proxy the test builds to the returned
// watch. Relays and connection goroutines wind down asynchronously, so
// the check polls for up to five seconds before it fails the test with
// a dump of what is still running.
func Start(t testing.TB) (watch func(...Node)) {
	t.Helper()
	base := runtime.NumGoroutine()
	var nodes []Node
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			relays := 0
			for _, n := range nodes {
				relays += n.InflightRelays()
			}
			extra := runtime.NumGoroutine() - base
			if relays == 0 && extra <= 0 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("leaktest: %d relays in flight, %d goroutines more than at the start:\n%s", relays, extra, buf)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
	return func(ns ...Node) { nodes = append(nodes, ns...) }
}
