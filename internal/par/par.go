package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(0..n-1) over at most workers goroutines and returns when
// all calls have finished. workers values below 1 are treated as 1; fn
// must be safe to call concurrently from distinct goroutines with
// distinct indices.
func For(workers, n int, fn func(i int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
