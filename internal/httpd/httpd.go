// Package httpd is the wire loop proxyd serves its proxy port through:
// a keep-alive HTTP/1.1 (and 1.0) server for bodyless GET and HEAD that
// hands an ordinary http.Handler a connection-owned request and response
// writer, and sends status line, headers and the first body bytes in one
// vectored write. It exists because net/http.Server flushes a hit in two
// write(2) calls through a fixed 4 KiB buffer and cannot writev; what it
// speaks, what it refuses and who owns which buffer is DESIGN.md §8b.
package httpd

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// maxHeaderBytes bounds a request head, request line through blank
	// line; a longer one is answered 431.
	maxHeaderBytes = 16 << 10
	// defaultHeaderTimeout is how long after its first byte a head may
	// take to complete (net/http's ReadHeaderTimeout as proxyd set it).
	defaultHeaderTimeout = 5 * time.Second
	// lingerTimeout bounds how long a refused connection is drained
	// before it is closed.
	lingerTimeout = 500 * time.Millisecond
)

// aLongTimeAgo is a read deadline in the past: setting it fails a
// blocked Read at once, which is how the abort watcher is disarmed.
var aLongTimeAgo = time.Unix(1, 0)

// Server serves Handler over the connections of its listeners. The zero
// value with a Handler is ready to use.
type Server struct {
	Handler http.Handler

	// headerTimeout overrides defaultHeaderTimeout when set (tests).
	headerTimeout time.Duration

	closing atomic.Bool // Shutdown has begun
	date    atomic.Pointer[dateValue]

	mu    sync.Mutex
	lns   []net.Listener
	conns map[*conn]struct{}
}

// dateValue is a rendered Date header value and the second it is for.
type dateValue struct {
	sec int64
	val []string
}

// dateHeader returns the Date value of the current second, rendering it
// once per second for the whole server.
func (s *Server) dateHeader() []string {
	now := time.Now()
	d := s.date.Load()
	if d == nil || d.sec != now.Unix() {
		// Once per second, not per request.
		d = &dateValue{sec: now.Unix(), val: []string{now.UTC().Format(http.TimeFormat)}}
		s.date.Store(d)
	}
	return d.val
}

// Serve accepts connections on l and serves each on its own goroutine
// until Shutdown, after which it returns http.ErrServerClosed. An accept
// error other than the listener closing (out of descriptors, say) is
// logged and retried after a back-off rather than ending the server.
func (s *Server) Serve(l net.Listener) error {
	defer l.Close()
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return http.ErrServerClosed
	}
	s.lns = append(s.lns, l)
	s.mu.Unlock()
	var delay time.Duration
	for {
		rwc, err := l.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			log.Printf("httpd: accept: %v; retrying in %v", err, delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		c := newConn(s, rwc)
		s.mu.Lock()
		if s.closing.Load() { // Shutdown may already have counted the connections
			s.mu.Unlock()
			rwc.Close()
			return http.ErrServerClosed
		}
		if s.conns == nil {
			s.conns = map[*conn]struct{}{}
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops accepting, closes connections parked between requests,
// and waits for the rest to finish the response they are in (each closes
// after it). When ctx ends first it closes what remains and returns
// ctx.Err(): handlers still running then see their writes fail.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.mu.Lock()
	for _, l := range s.lns {
		l.Close()
	}
	s.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		left := len(s.conns)
		for c := range s.conns {
			if c.idle.Load() || ctx.Err() != nil {
				c.rwc.Close() // its serve goroutine sees the error and deregisters
			}
		}
		s.mu.Unlock()
		if left == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
		case <-tick.C:
		}
	}
}

// Abort-watcher states of a connection.
const (
	watchOff   = iota // between requests: Done must not start a watcher
	watchReady        // a handler is running and has not asked for Done
	watchArmed        // the watcher goroutine is reading the socket
)

// conn is one client connection and everything that is reused for each
// request on it: the read buffer, the request with its URL and header
// map, the response header map, the rendered-head scratch and the
// vectored-write backing array. It is the http.ResponseWriter and
// http.Flusher its handler is given.
type conn struct {
	srv *Server
	rwc net.Conn
	// idle is set while the serve goroutine waits for the first byte of
	// a request: Shutdown may close such a connection.
	idle atomic.Bool

	// buf[pos:end] is received and not yet parsed: the next head, or
	// the start of one, or pipelined requests behind it.
	buf      []byte
	pos, end int

	req       *http.Request // carries ctx; its fields are reset per request
	url       url.URL
	reqHeader http.Header
	vals      []string // backing array of reqHeader's one-value slices

	// ctx is cancelled when the client goes away; see connCtx.
	ctx       context.Context
	cancel    context.CancelFunc
	watch     atomic.Int32  // watchOff, watchReady or watchArmed
	watchDone chan struct{} // the watcher goroutine signals its exit

	// Response state, reset by startResponse.
	header        http.Header
	status        int
	wroteHeader   bool  // WriteHeader has run: status and framing are fixed
	headSent      bool  // the head is on the wire
	isHead        bool  // HEAD request: the body is counted, never sent
	closeAfter    bool  // this response is the connection's last
	contentLength int64 // the handler's Content-Length; -1: buffer the body and frame it at the end
	written       int64 // body bytes sent (or buffered, or counted for HEAD)
	body          []byte
	head          []byte   // rendered status line and headers
	keys          []string // sorted header names
	lenVal        [1]string
	one           [1][]byte
	vec           [][]byte    // backing array of wv
	wv            net.Buffers // WriteTo consumes it; vec keeps the array
}

func newConn(s *Server, rwc net.Conn) *conn {
	c := &conn{
		srv:       s,
		rwc:       rwc,
		buf:       make([]byte, 4<<10),
		reqHeader: http.Header{},
		header:    http.Header{},
		watchDone: make(chan struct{}, 1), // one watcher at a time, which never blocks on exit
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.req = (&http.Request{
		ProtoMajor: 1,
		URL:        &c.url,
		Header:     c.reqHeader,
		Body:       http.NoBody,
	}).WithContext(connCtx{c.ctx, c})
	if ra := rwc.RemoteAddr(); ra != nil { // nil for a socket that died inside accept, net/http guards too
		c.req.RemoteAddr = ra.String()
	}
	return c
}

// connCtx is the context of every request on one connection. It is
// cancelled when the client goes away, but watching the socket for that
// costs a goroutine hand-off per request, so the watcher starts only
// when a handler first asks for Done — a handler that streams from an
// upstream does, one that serves a cached prefix never does. Embedding
// the real cancelCtx keeps context.AfterFunc and WithCancel children
// attached without a goroutine of their own.
type connCtx struct {
	context.Context
	c *conn
}

func (x connCtx) Done() <-chan struct{} {
	if x.c.watch.CompareAndSwap(watchReady, watchArmed) {
		go x.c.watchSocket()
	}
	return x.Context.Done()
}

// watchSocket reads the socket while a handler runs. A read error means
// the client went away and cancels the context; bytes are a pipelined
// request and are kept for the serve loop; the deadline error is
// endHandler disarming the watcher.
func (c *conn) watchSocket() {
	defer func() { c.watchDone <- struct{}{} }()
	for c.end < len(c.buf) {
		n, err := c.rwc.Read(c.buf[c.end:])
		c.end += n
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				c.cancel()
			}
			return
		}
	}
}

// endHandler closes the window in which Done may start the watcher and
// stops one that runs, so the serve goroutine is the socket's only
// reader again. It reports whether the client is still there.
func (c *conn) endHandler() bool {
	if c.watch.CompareAndSwap(watchReady, watchOff) {
		return true
	}
	// Only after a handler asked for Done: the relay path, not the hit
	// path.
	c.rwc.SetReadDeadline(aLongTimeAgo)
	<-c.watchDone
	c.rwc.SetReadDeadline(time.Time{})
	c.watch.Store(watchOff)
	return c.ctx.Err() == nil
}

// serve is the connection's loop: read a head, parse it, call the
// handler, finish the response, until either side is done.
func (c *conn) serve() {
	defer func() {
		if r := recover(); r != nil && r != http.ErrAbortHandler {
			log.Printf("httpd: panic serving %s: %v\n%s", c.req.RemoteAddr, r, debug.Stack())
		}
		c.cancel()
		c.rwc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	}()
	for {
		head, err := c.readHead()
		if err != nil {
			switch {
			case errors.Is(err, errHeadTooLarge):
				c.refuse(http.StatusRequestHeaderFieldsTooLarge)
			case errors.Is(err, os.ErrDeadlineExceeded):
				c.refuse(http.StatusRequestTimeout)
			}
			return // the client hung up, or Shutdown closed an idle connection
		}
		if status := c.parseHead(head); status != 0 {
			c.refuse(status)
			return
		}
		if c.pos == c.end {
			c.pos, c.end = 0, 0 // the whole buffer is free for the watcher and the next head
		}
		c.startResponse()
		c.watch.Store(watchReady)
		c.srv.Handler.ServeHTTP(c, c.req)
		alive := c.endHandler()
		if !c.finish() || !alive || c.srv.closing.Load() {
			return
		}
	}
}

var errHeadTooLarge = errors.New("httpd: request head exceeds 16 KiB")

// readHead returns the next request's head, request line through blank
// line, and leaves every byte behind it buffered for the request after.
// A head that is not complete in the bytes already buffered gets a
// deadline, armed when its first byte is in.
func (c *conn) readHead() ([]byte, error) {
	// i is the next byte to look at, line where the line it is in starts.
	i, line, armed := c.pos, c.pos, false
	for {
		for ; i < c.end; i++ {
			if c.buf[i] != '\n' {
				continue
			}
			if i == line || i == line+1 && c.buf[line] == '\r' {
				head := c.buf[c.pos : i+1]
				c.pos = i + 1
				if armed {
					c.rwc.SetReadDeadline(time.Time{})
				}
				return head, nil
			}
			line = i + 1
		}
		if c.end-c.pos >= maxHeaderBytes {
			return nil, errHeadTooLarge
		}
		moved := c.makeRoom()
		i, line = i-moved, line-moved
		waiting := c.end == 0
		if !waiting && !armed {
			armed = true
			timeout := c.srv.headerTimeout
			if timeout == 0 {
				timeout = defaultHeaderTimeout
			}
			c.rwc.SetReadDeadline(time.Now().Add(timeout))
		}
		if waiting {
			c.idle.Store(true)
		}
		n, err := c.rwc.Read(c.buf[c.end:])
		if waiting {
			c.idle.Store(false)
		}
		c.end += n
		if n == 0 && err != nil {
			return nil, err
		}
	}
}

// makeRoom moves the unparsed bytes to the front of the buffer, and
// grows it, up to maxHeaderBytes, when they fill it. It returns how far
// they moved.
func (c *conn) makeRoom() int {
	moved := c.pos
	c.end = copy(c.buf, c.buf[c.pos:c.end])
	c.pos = 0
	if c.end == len(c.buf) {
		c.buf = append(c.buf, make([]byte, min(len(c.buf), maxHeaderBytes-len(c.buf)))...)
	}
	return moved
}
