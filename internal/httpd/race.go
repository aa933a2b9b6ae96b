//go:build race

package httpd

import "net"

// raceRelease tells the race detector that what this goroutine did so
// far happens before whatever reads the bytes it is about to send. The
// detector learns that from annotations in syscall.Write and
// syscall.Read; writev(2) carries none (as of Go 1.24), so a test that
// orders its steps by what it received — fetch, then Proxy.Quiesce —
// would report the handler's WaitGroup.Add as racing the Wait. A
// zero-byte Write borrows the annotation; normal builds compile this
// away (norace.go).
func raceRelease(c net.Conn) { _, _ = c.Write(nil) }
