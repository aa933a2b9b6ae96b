package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunnerTwoPackageModule drives Runner — go list, the loader and
// shardlock — over a temp module of two packages, internal/proxy
// importing internal/core. Both sleep under a mutex; only the one in
// internal/proxy, the package shardlock guards, is a finding.
func TestRunnerTwoPackageModule(t *testing.T) {
	// The module has no requirements; keep go list from ever reaching
	// for the network or another toolchain.
	t.Setenv("GOPROXY", "off")
	t.Setenv("GOTOOLCHAIN", "local")

	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module "+ModulePath+"\n\ngo 1.24\n")
	write("internal/core/core.go", `package core

import (
	"sync"
	"time"
)

type Cache struct {
	mu sync.Mutex
	n  int
}

func (c *Cache) Touch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond)
	c.n++
	return c.n
}
`)
	write("internal/proxy/proxy.go", `package proxy

import (
	"sync"
	"time"

	"streamcache/internal/core"
)

type shard struct {
	mu    sync.Mutex
	cache *core.Cache
}

func (sh *shard) serve() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	time.Sleep(time.Millisecond)
	return sh.cache.Touch()
}
`)

	var log strings.Builder
	findings, err := (&Runner{Dir: dir, Log: &log}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"internal/core (0 findings)", "internal/proxy (1 findings)"} {
		if !strings.Contains(log.String(), line) {
			t.Errorf("progress log = %q, want a line %q", log.String(), line)
		}
	}
	const want = "proxy.go:18:2: shardlock: calls time.Sleep while holding sh.mu"
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 starting %s:\n%v", len(findings), want, findings)
	}
	got := findings[0]
	got.File = filepath.Base(got.File)
	if !strings.HasPrefix(got.String(), want) {
		t.Errorf("finding = %s, want it to start %s", got, want)
	}
}
