package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 8, 100} {
		const n = 500
		var calls [n]atomic.Int32
		For(workers, n, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d called %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForZeroTasks(t *testing.T) {
	called := false
	For(4, 0, func(int) { called = true })
	if called {
		t.Error("fn called with zero tasks")
	}
}
