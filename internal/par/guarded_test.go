package par

import "testing"

// TestGuardedReleases holds With and Read to their one promise: however
// fn leaves — by falling off its end, by an early return, or by a panic
// the caller recovers — the lock is free again.
func TestGuardedReleases(t *testing.T) {
	exits := map[string]func(*int){
		"return": func(*int) {},
		"early return": func(v *int) {
			if *v == 0 {
				return
			}
			t.Errorf("the zero Guarded holds %d", *v)
		},
		"panic": func(*int) { panic("fn failed") },
	}
	var g Guarded[int]
	for _, call := range []struct {
		name string
		run  func(func(*int))
	}{{"With", g.With}, {"Read", g.Read}} {
		for exit, fn := range exits {
			func() {
				defer func() { _ = recover() }()
				call.run(fn)
			}()
			if !g.mu.TryLock() {
				t.Fatalf("%s left the lock held after fn's %s", call.name, exit)
			}
			g.mu.Unlock()
		}
	}
}
