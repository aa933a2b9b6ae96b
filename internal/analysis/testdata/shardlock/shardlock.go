// Test fixture for the shardlock analyzer, type-checked as
// streamcache/internal/proxy (the only package it guards).
package proxy

import (
	"net/http"
	"sync"
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
	http.Get(url) // want "blocking call .calls into net/http. while holding sh.mu"
	sh.mu.Unlock()
}

func transitiveBlockUnderLock(sh *shard, url string) {
	sh.mu.Lock()
	fetchIndirect(url) // want "call to fetchIndirect, which calls into net/http, while holding sh.mu"
	sh.mu.Unlock()
}

func chanRecvUnderLock(sh *shard, ch chan int) {
	sh.mu.Lock()
	<-ch // want "channel receive while holding sh.mu"
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

func suppressedBlock(sh *shard, url string) {
	sh.mu.Lock()
	//mediavet:ignore shardlock fixture exercising the suppression path
	http.Get(url)
	sh.mu.Unlock()
}

func switchUnderLock(sh *shard, url string, kind int) {
	sh.mu.Lock()
	switch kind {
	case 0:
		http.Get(url) // want "blocking call .calls into net/http. while holding sh.mu"
	case 1:
		sh.mu.Unlock()
		http.Get(url) // negative: this case released the lock before it returned
		return
	}
	sh.mu.Unlock()
}

func selectUnderLock(sh *shard, ch chan int) {
	sh.mu.Lock()
	select { // want "select while holding sh.mu"
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
		http.Get(u) // want "blocking call .calls into net/http. while holding sh.mu"
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
	http.Get(url) // want "blocking call .calls into net/http. while holding sh.mu"
	sh.mu.Unlock()
}
