package par

import "sync"

// Guarded is a value of type T that only the functions passed to With
// and Read can reach, each with the lock held. The lock is released
// when the function returns, early or by panic alike, so a lock left
// held cannot be written, and neither can a write to the value outside
// its lock: v has no other way out of this package. The one way round
// is for a function to keep the *T it is handed past its own return;
// nothing may.
//
// The zero Guarded holds the zero T; constructors fill it in with With.
// A Guarded must not be copied after first use.
type Guarded[T any] struct {
	mu sync.RWMutex
	v  T
}

// With runs fn on the value under the write lock.
func (g *Guarded[T]) With(fn func(*T)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fn(&g.v)
}

// Read runs fn on the value under the read lock, beside any other Read:
// fn must not write the value.
func (g *Guarded[T]) Read(fn func(*T)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	fn(&g.v)
}

// InitCond makes c a condition variable on g's write lock. c.Wait may
// be called only inside With: it releases the lock while it sleeps and
// holds it again when it returns.
func (g *Guarded[T]) InitCond(c *sync.Cond) { c.L = &g.mu }
