package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is one benchmark invocation: where the binaries under test and
// the scratch directory live, the inputs every workload derives from,
// and the children still to be reaped on any exit path.
type env struct {
	bin     string // directory holding proxyd, figures, collectd
	work    string // private scratch directory, removed by cleanup
	seed    int64
	seconds float64
	quick   bool

	mu       sync.Mutex
	children []*child
	seq      int
}

// child is one process under test, started in its own process group so
// one kill(-pgid) takes down anything it forked.
type child struct {
	name   string
	cmd    *exec.Cmd
	log    string
	exited chan struct{} // closed once Wait returned
	hwmKB  atomic.Int64  // highest VmHWM seen while it ran
}

// spawn starts bin/<name> with args, output to a log file in the
// scratch directory.
func (e *env) spawn(name string, args ...string) (*child, error) {
	e.mu.Lock()
	e.seq++
	logPath := filepath.Join(e.work, fmt.Sprintf("%s-%d.log", name, e.seq))
	e.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState
		close(c.exited)
	}()
	go c.watchRSS()
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()
	return c, nil
}

func (c *child) running() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// kill takes down the child's whole process group and waits for it.
func (c *child) kill() {
	if c.running() {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // ESRCH if it just exited
	}
	<-c.exited
}

// waitExit waits for the child to exit on its own and reports whether
// it did so with status 0 before the deadline; a child still running
// then is killed, so a hang becomes a failure instead.
func (c *child) waitExit(timeout time.Duration) bool {
	select {
	case <-c.exited:
		return c.cmd.ProcessState.Success()
	case <-time.After(timeout):
		c.kill()
		return false
	}
}

// terminate asks the child to drain and exit; waitExit collects it.
func (c *child) terminate() {
	c.sampleRSS()
	if c.running() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
}

// cpuSeconds is the user+system time of an exited child.
func (c *child) cpuSeconds() float64 {
	ps := c.cmd.ProcessState
	return ps.UserTime().Seconds() + ps.SystemTime().Seconds()
}

// watchRSS polls the child's resident-set high-water mark until it
// exits. wait4's ru_maxrss cannot be used: the child starts out sharing
// the driver's address space (vfork), and the kernel folds that space's
// high-water mark into the figure at exec, so a driver holding a 256 MB
// catalog would be reported as the child's peak.
func (c *child) watchRSS() {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		c.sampleRSS()
		select {
		case <-c.exited:
			return
		case <-tick.C:
		}
	}
}

func (c *child) sampleRSS() {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return // it has exited
	}
	_, rest, ok := strings.Cut(string(raw), "VmHWM:")
	if !ok {
		return
	}
	fields := strings.Fields(rest)
	if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil && kb > c.hwmKB.Load() {
		c.hwmKB.Store(kb)
	}
}

// peakRSSMB is the highest resident-set high-water mark (VmHWM) seen
// while the child ran: exact up to the last 50 ms of its life, or up to
// the moment of an explicit sampleRSS before it is told to exit.
func (c *child) peakRSSMB() float64 { return float64(c.hwmKB.Load()) / 1024 }

// liveCPUSeconds reads utime+stime of a running child from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (c *child) liveCPUSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are positional after ")".
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line for %s", c.name)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line for %s", c.name)
	}
	const clockTick = 100 // USER_HZ is 100 on every Linux port Go supports
	return float64(utime+stime) / clockTick, nil
}

// cleanup kills whatever is still running and removes the scratch
// directory; every exit path of main goes through it.
func (e *env) cleanup() {
	e.mu.Lock()
	children := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	_ = os.RemoveAll(e.work)
}

// freeAddr reserves a loopback port by binding port 0 and releasing it.
// Cluster nodes must know each other's address before any of them
// starts, so they cannot each bind port 0 themselves.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// control is the client for readiness and /stats polls, kept apart from
// the two measured connections.
var control = &http.Client{Timeout: 5 * time.Second}

// awaitReady polls url until it answers 200, the child dies, or the
// deadline passes.
func awaitReady(c *child, url string, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for {
		resp, err := control.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !c.running() {
			return fmt.Errorf("%s exited before it was ready (log %s)", c.name, c.log)
		}
		if time.Now().After(stop) {
			return fmt.Errorf("%s not ready at %s after %v", c.name, url, deadline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
