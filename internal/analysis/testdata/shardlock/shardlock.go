// Test fixture for the shardlock analyzer, type-checked as
// streamcache/internal/proxy (the only package it guards).
package proxy

import (
	"io"
	"net/http"
	"sync"
	"time"
)

type shard struct {
	mu       sync.Mutex
	inflight map[int]int
}

func fetchIndirect(url string) error {
	_, err := http.Get(url)
	return err
}

func blockUnderLock(sh *shard, url string) {
	sh.mu.Lock()
	http.Get(url) // want "calls into net/http while holding sh.mu"
	sh.mu.Unlock()
}

func transitiveBlockUnderLock(sh *shard, url string) {
	sh.mu.Lock()
	fetchIndirect(url) // want "calls fetchIndirect, which calls into net/http while holding sh.mu"
	sh.mu.Unlock()
}

func chanRecvUnderLock(sh *shard, ch chan int) {
	sh.mu.Lock()
	<-ch // want "receives from a channel while holding sh.mu"
	sh.mu.Unlock()
}

func fetchAfterUnlockOK(sh *shard, url string) int {
	sh.mu.Lock()
	v := sh.inflight[1]
	sh.mu.Unlock()
	http.Get(url) // negative: lock released before blocking
	return v
}

func missingUnlock(sh *shard) {
	sh.mu.Lock() // want "no matching Unlock"
	sh.inflight[1] = 2
}

func deferUnlockOK(sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.inflight[1] = 5 // negative: guarded write under the deferred lock
}

func earlyReturnUnderLock(sh *shard, k int) int {
	sh.mu.Lock()
	if v, ok := sh.inflight[k]; ok {
		return v // want "return while holding sh.mu .locked at .*shardlock.go:\d+:\d+. and no deferred unlock"
	}
	sh.mu.Unlock()
	return 0
}

func earlyReturnUnderDeferOK(sh *shard, k int) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.inflight[k]; ok {
		return v // negative: the deferred Unlock runs on this path too
	}
	return 0
}

func earlyReturnUnderDeferredLiteralOK(sh *shard, k int) int {
	sh.mu.Lock()
	defer func() { sh.mu.Unlock() }()
	if v, ok := sh.inflight[k]; ok {
		return v // negative: the deferred literal unlocks on this path too
	}
	return 0
}

func earlyReturnAfterUnlockOK(sh *shard, k int) int {
	sh.mu.Lock()
	if v, ok := sh.inflight[k]; ok {
		sh.mu.Unlock()
		return v // negative: this path released the lock itself
	}
	sh.mu.Unlock()
	return 0
}

// With two locks held a finding names the one locked first, whatever
// order the checker's map yields them in.
func twoLocksHeld(sh *shard, r *relay, url string) int {
	sh.mu.Lock()
	r.mu.Lock()
	http.Get(url) // want "calls into net/http while holding sh.mu .locked"
	if r.n > 0 {
		return r.n // want "return while holding sh.mu .locked"
	}
	r.mu.Unlock()
	sh.mu.Unlock()
	return 0
}

// A deferred Unlock covers only its own mutex.
func twoLocksOneDeferred(sh *shard, r *relay) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r.mu.Lock()
	if r.n > 0 {
		return r.n // want "return while holding r.mu .locked"
	}
	r.mu.Unlock()
	return 0
}

func unguardedWrite(sh *shard) {
	sh.inflight[3] = 4 // want "write to sh.inflight without holding sh.mu"
}

func newShard() *shard {
	sh := &shard{}
	sh.inflight = map[int]int{} // negative: constructor initialization
	return sh
}

func goroutineOwnTimelineOK(sh *shard, ch chan int) {
	sh.mu.Lock()
	go func() {
		ch <- 1 // negative: the spawned goroutine has its own timeline
	}()
	sh.mu.Unlock()
}

type relay struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func newRelay() *relay {
	r := &relay{}
	r.cond = sync.NewCond(&r.mu) // negative: constructor initialization
	return r
}

func (r *relay) waitTurnOK() {
	r.mu.Lock()
	for r.n == 0 {
		r.cond.Wait() // negative: Cond.Wait releases the lock while parked
	}
	r.n--
	r.mu.Unlock()
}

func branchReleaseOK(sh *shard, url string, fast bool) {
	sh.mu.Lock()
	if fast {
		sh.mu.Unlock()
		http.Get(url) // negative: this branch released the lock
		return
	}
	sh.inflight[2] = 1
	sh.mu.Unlock()
}

func switchUnderLock(sh *shard, url string, kind int) {
	sh.mu.Lock()
	switch kind {
	case 0:
		http.Get(url) // want "calls into net/http while holding sh.mu"
	case 1:
		sh.mu.Unlock()
		http.Get(url) // negative: this case released the lock before it returned
		return
	}
	sh.mu.Unlock()
}

func selectUnderLock(sh *shard, ch chan int) {
	sh.mu.Lock()
	select { // want "selects on channels while holding sh.mu"
	case v := <-ch:
		sh.inflight[5] = v
	default:
	}
	sh.mu.Unlock()
}

func labeledLoopUnderLock(sh *shard, urls []string) {
	sh.mu.Lock()
outer:
	for _, u := range urls {
		if u == "" {
			continue outer
		}
		http.Get(u) // want "calls into net/http while holding sh.mu"
	}
	sh.mu.Unlock()
}

func elseIfUnderLock(sh *shard, url string, a, b bool) {
	sh.mu.Lock()
	if a {
		sh.inflight[4] = 1
	} else if b {
		sh.mu.Unlock()
		return
	} else {
		sh.mu.Unlock()
		return
	}
	// Both releasing branches returned: only the one that kept the lock
	// falls through to here.
	http.Get(url) // want "calls into net/http while holding sh.mu"
	sh.mu.Unlock()
}

func notify(ch chan int) { ch <- 1 }

// Every kind of blocking operation: the calls directBlockReason names,
// a channel send, and a local function that performs one. A literal
// only assigned under the lock runs later, on its own timeline.
func everyBlockingKindUnderLock(sh *shard, wg *sync.WaitGroup, w io.Writer, r io.Reader, ch chan int) func() {
	sh.mu.Lock()
	time.Sleep(time.Millisecond) // want "calls time.Sleep while holding sh.mu"
	wg.Wait()                    // want "waits on a sync.WaitGroup while holding sh.mu"
	io.Copy(w, r)                // want "performs io.Copy .reader may block. while holding sh.mu"
	ch <- 1                      // want "sends on a channel while holding sh.mu"
	notify(ch)                   // want "calls notify, which sends on a channel while holding sh.mu"
	later := func() { ch <- 1 }  // negative: not run here
	sh.mu.Unlock()
	return later
}

// What counts as a shard mutex: sync.Mutex and sync.RWMutex, directly
// or behind a pointer. Anything else with a Lock method is not tracked,
// though an embedded mutex still guards the fields beside it.

type index struct {
	rw    sync.RWMutex
	mu    *sync.Mutex
	names map[int]string
}

func everyMutexKindUnderBlock(ix *index, url string) string {
	ix.rw.RLock()
	http.Get(url) // want "calls into net/http while holding ix.rw"
	s := ix.names[0]
	ix.rw.RUnlock()
	ix.mu.Lock()
	http.Get(url) // want "calls into net/http while holding ix.mu"
	ix.mu.Unlock()
	return s
}

type spin struct{}

func (*spin) Lock()   {}
func (*spin) Unlock() {}

func foreignLockers(sp *spin, l sync.Locker, url string) {
	var g struct {
		sync.Mutex
		n int
	}
	sp.Lock()
	l.Lock()
	g.Lock()
	http.Get(url) // negative: none is a sync.Mutex or sync.RWMutex by type
	g.n = 1       // want "write to g.n without holding g.Mutex"
	g.Unlock()
	l.Unlock()
	sp.Unlock()
}

// The lock state is threaded through every statement form: init
// clauses, plain and three-clause loops, bare blocks, switches with an
// init, type switches, joins, panicking branches.
func everyStatementFormUnderLock(sh *shard, url string, x any) {
	if n := len(url); n > 0 { // negative: no lock held yet
		sh.mu.Lock()
	} else {
		sh.mu.Lock()
	}
	if v, ok := sh.inflight[1]; ok {
		sh.inflight[1] = v + 1
	}
	for i := 0; i < 2; i++ {
		http.Get(url) // want "calls into net/http while holding sh.mu"
	}
	{
		http.Get(url) // want "calls into net/http while holding sh.mu"
	}
	switch n := len(url); n {
	case 0:
		sh.inflight[2] = 0
	case 1:
		sh.inflight[2] = 1
	default:
	}
	switch x.(type) {
	case int:
		http.Get(url) // want "calls into net/http while holding sh.mu"
	case nil:
		sh.mu.Unlock()
		panic("no x")
	}
	if x == 0 {
		sh.mu.Unlock()
	}
	http.Get(url) // negative: a lock released on either side of a join counts as released
}

// Guarded-field writes: only fields of a struct that declares a mutex
// are guarded, and only a function returning that struct's type is its
// constructor.

type plain struct{ n int }

func (r *relay) bumpUnlocked(p *plain) int {
	p.n = 1                  // negative: plain declares no mutex
	http.DefaultClient = nil // negative: a package variable, not a field
	r.n = 1                  // want "write to r.n without holding r.mu"
	return r.n
}
