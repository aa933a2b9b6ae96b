package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// probe measures how fast this host computes while the figure path
// runs: every probeEvery it times a fixed piece of work of the
// benchmark's own in thread CPU time, which does not count the wait for
// a core the sweep keeps busy. The same work takes up to twice as long
// from one moment to the next on a shared host; sweep times are scaled
// by what the probe saw while they ran.
type probe struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // CPU seconds per unit of work
}

const (
	probeEvery = 100 * time.Millisecond
	// probeRefSeconds is the work's CPU time on the sizing box in a quiet phase.
	probeRefSeconds = 0.00064
)

// probeTable fits the second-level cache.
var probeTable = func() []uint64 {
	t := make([]uint64, 1<<15) // 256 KiB
	for i := range t {
		t[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return t
}()

// probeSink keeps the work's result alive.
var probeSink uint64

// probeWork is four independent chains over the table: code that keeps
// a core's execution ports busy is what slows most when a neighbour
// takes the core's other hardware thread, and so does the simulator. A
// dependent chain, or a pass over memory, tracked the sweeps' time less
// well when tried.
func probeWork() {
	var a, b, c, d uint64 = 1, 2, 3, 4
	for r := 0; r < 32; r++ {
		for i := 0; i+4 <= len(probeTable); i += 4 {
			a = (a ^ probeTable[i]) * 0x9E3779B97F4A7C15
			b = (b + probeTable[i+1]) ^ (b >> 13)
			c = (c ^ probeTable[i+2]) + (c << 7)
			d = (d + probeTable[i+3]) * 31
		}
	}
	probeSink = a ^ b ^ c ^ d
}

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	// The call cannot fail with a valid clock ID and pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		runtime.LockOSThread() // thread CPU time needs one thread
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			t0 := threadCPU()
			probeWork()
			p.samples = append(p.samples, threadCPU()-t0)
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// speed stops the probe and returns the host's speed relative to the
// sizing box: above 1 when the work ran faster than there.
func (p *probe) speed() float64 {
	close(p.stop)
	p.done.Wait()
	// The sweep's time integrates the host's slow moments, so the mean.
	var sum float64
	for _, s := range p.samples {
		sum += s
	}
	return probeRefSeconds / (sum / float64(len(p.samples)))
}
