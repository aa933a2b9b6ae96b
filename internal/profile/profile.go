// Package profile is the one copy of the -cpuprofile/-memprofile
// plumbing the commands share.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath and arranges an allocation
// profile into memPath, returning the stop function to defer: it ends
// the CPU profile and writes the allocation snapshot. An empty path
// disables that profile. A failure to write the allocation profile at
// stop is reported on standard error; by then the command's work is
// done and its exit status should not change.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mem profile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date allocation stats
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "mem profile:", err)
		}
	}, nil
}
