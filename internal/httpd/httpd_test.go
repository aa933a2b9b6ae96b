package httpd

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamcache/internal/leaktest"
)

// startServer serves h through a Server on a loopback port and drains
// it when the test ends. tweak runs before Serve.
func startServer(t testing.TB, h http.Handler, tweak func(*Server)) (*Server, string) {
	t.Helper()
	leaktest.Start(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: h}
	if tweak != nil {
		tweak(srv)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a test that left a handler blocked has failed already
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

// rawClient is a hand-driven connection: tests write request bytes as
// they please and parse what comes back with net/http's reader.
type rawClient struct {
	t  testing.TB
	c  net.Conn
	br *bufio.Reader
}

func dial(t testing.TB, addr string) *rawClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &rawClient{t: t, c: c, br: bufio.NewReader(c)}
}

func (k *rawClient) send(s string) {
	k.t.Helper()
	if _, err := io.WriteString(k.c, s); err != nil {
		k.t.Fatalf("send: %v", err)
	}
}

// response reads one response to a request of the given method.
func (k *rawClient) response(method string) (*http.Response, string) {
	k.t.Helper()
	resp, err := http.ReadResponse(k.br, &http.Request{Method: method})
	if err != nil {
		k.t.Fatalf("reading response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		k.t.Fatalf("reading body: %v", err)
	}
	return resp, string(body)
}

// closed reports whether the server has closed the connection: the next
// read ends, and not because the test's own deadline ran out.
func (k *rawClient) closed() bool {
	_, err := k.br.ReadByte()
	var ne net.Error
	return err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

// echo answers the request path, with a Content-Length.
var echo = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
	body := "path=" + req.URL.Path + " query=" + req.URL.RawQuery
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, body)
})

func TestTransportReusesOneConnection(t *testing.T) {
	var mu sync.Mutex
	clients := map[string]bool{} // the remote address of every connection that carried a request
	srv, addr := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		clients[req.RemoteAddr] = true
		mu.Unlock()
		echo(w, req)
	}), nil)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	const n = 25
	for i := 0; i < n; i++ {
		resp, err := client.Get(fmt.Sprintf("http://%s/objects/%d?i=%d", addr, i, i))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("path=/objects/%d query=i=%d", i, i); err != nil || string(body) != want || resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d body %q err %v, want 200 %q", i, resp.StatusCode, body, err, want)
		}
		if resp.Header.Get("Date") == "" {
			t.Fatalf("request %d: no Date header", i)
		}
	}
	if len(clients) != 1 {
		t.Errorf("%d requests used %d connections, want 1", n, len(clients))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown with only an idle connection: %v", err)
	}
}

func TestHTTP10AndConnectionClose(t *testing.T) {
	_, addr := startServer(t, echo, nil)
	for _, req := range []string{
		"GET /a HTTP/1.0\r\n\r\n",
		"GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", // the loop closes after every 1.0 response
		"GET /a HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: x\r\nConnection: Keep-Alive, CLOSE\r\n\r\n",
	} {
		k := dial(t, addr)
		k.send(req)
		resp, body := k.response("GET")
		if resp.StatusCode != 200 || body != "path=/a query=" {
			t.Errorf("%q: status %d body %q", req, resp.StatusCode, body)
		}
		if !resp.Close {
			t.Errorf("%q: response does not announce Connection: close", req)
		}
		if !k.closed() {
			t.Errorf("%q: connection left open", req)
		}
	}
}

func TestPipelinedRequests(t *testing.T) {
	// The second handler variant asks for Done, which starts the socket
	// watcher while the second request's bytes are already in flight:
	// they are a request, not an abort.
	for _, askDone := range []bool{false, true} {
		var cancelled atomic.Bool
		h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if askDone {
				done := req.Context().Done()
				time.Sleep(20 * time.Millisecond) // let the watcher read what is pipelined
				select {
				case <-done:
					cancelled.Store(true)
				default:
				}
			}
			echo(w, req)
		})
		_, addr := startServer(t, h, nil)
		k := dial(t, addr)
		k.send("GET /one HTTP/1.1\r\nHost: x\r\n\r\nGET /two?q HTTP/1.1\r\nHost: x\r\n\r\nGET /thr")
		k.send("ee HTTP/1.1\r\nHost: x\r\n\r\n")
		for _, want := range []string{"path=/one query=", "path=/two query=q", "path=/three query="} {
			if resp, body := k.response("GET"); resp.StatusCode != 200 || body != want {
				t.Fatalf("askDone=%v: status %d body %q, want %q", askDone, resp.StatusCode, body, want)
			}
		}
		if cancelled.Load() {
			t.Errorf("pipelined bytes cancelled the request context")
		}
	}
}

func TestSlowHeadIsRefused(t *testing.T) {
	_, addr := startServer(t, echo, func(s *Server) { s.headerTimeout = 100 * time.Millisecond })
	// A connection that has sent nothing is idle, not slow.
	k := dial(t, addr)
	time.Sleep(300 * time.Millisecond)
	k.send("GET /late HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp, body := k.response("GET"); resp.StatusCode != 200 || body != "path=/late query=" {
		t.Fatalf("request after an idle pause: status %d body %q", resp.StatusCode, body)
	}
	// One that started a head and stalls has headerTimeout from its
	// first byte.
	start := time.Now()
	k.send("GET /stall HTTP/1.1\r\nHo")
	resp, _ := k.response("GET")
	if resp.StatusCode != http.StatusRequestTimeout || !resp.Close {
		t.Errorf("stalled head: status %d close=%v, want 408 and close", resp.StatusCode, resp.Close)
	}
	if d := time.Since(start); d < 100*time.Millisecond || d > 2*time.Second {
		t.Errorf("stalled head refused after %v, want about 100ms", d)
	}
	if !k.closed() {
		t.Error("connection left open after 408")
	}
}

func TestOversizeHeadIsRefused(t *testing.T) {
	_, addr := startServer(t, echo, nil)
	// Just under the limit is served...
	k := dial(t, addr)
	pad := strings.Repeat("a", maxHeaderBytes-len("GET / HTTP/1.1\r\nHost: x\r\nX-Pad: \r\n\r\n"))
	k.send("GET / HTTP/1.1\r\nHost: x\r\nX-Pad: " + pad + "\r\n\r\n")
	if resp, _ := k.response("GET"); resp.StatusCode != 200 {
		t.Fatalf("head of exactly %d bytes: status %d, want 200", maxHeaderBytes, resp.StatusCode)
	}
	// ...and 20 KiB gets its 431 in full, not a reset: the client is
	// still writing when the server answers.
	k = dial(t, addr)
	k.send("GET / HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("a", 20<<10) + "\r\n\r\n")
	resp, body := k.response("GET")
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge || !resp.Close {
		t.Errorf("20 KiB head: status %d close=%v, want 431 and close", resp.StatusCode, resp.Close)
	}
	if body != "Request Header Fields Too Large\n" {
		t.Errorf("431 body %q", body)
	}
	if !k.closed() {
		t.Error("connection left open after 431")
	}
}

func TestRefusals(t *testing.T) {
	var served atomic.Int64
	_, addr := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		served.Add(1)
	}), nil)
	for _, tt := range []struct {
		name, req string
		want      int
	}{
		{"post", "POST /objects/1 HTTP/1.1\r\nHost: x\r\n\r\n", 405},
		{"delete", "DELETE /objects/1 HTTP/1.1\r\nHost: x\r\n\r\n", 405},
		{"body", "GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", 400},
		{"post with body", "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", 400},
		{"chunked", "GET / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 501},
		{"http2 preface", "PRI * HTTP/2.0\r\n\r\n", 505},
		{"no host", "GET / HTTP/1.1\r\n\r\n", 400},
		{"two hosts", "GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", 400},
		{"absolute target", "GET http://x/ HTTP/1.1\r\nHost: x\r\n\r\n", 400},
		{"no colon", "GET / HTTP/1.1\r\nHost x\r\n\r\n", 400},
		{"folded line", "GET / HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n 2\r\n\r\n", 400},
		{"space before colon", "GET / HTTP/1.1\r\nHost : x\r\n\r\n", 400},
		{"control byte", "GET / HTTP/1.1\r\nHost: x\r\nX-A: a\x00b\r\n\r\n", 400},
		{"blank first line", "\r\nGET / HTTP/1.1\r\nHost: x\r\n\r\n", 400},
		{"not http", "hello\r\n\r\n", 400},
	} {
		k := dial(t, addr)
		k.send(tt.req)
		resp, body := k.response("GET")
		if resp.StatusCode != tt.want || !resp.Close {
			t.Errorf("%s: status %d close=%v, want %d and close", tt.name, resp.StatusCode, resp.Close, tt.want)
		}
		if want := http.StatusText(tt.want) + "\n"; body != want {
			t.Errorf("%s: body %q, want %q", tt.name, body, want)
		}
		if allow := resp.Header.Get("Allow"); (allow == "GET, HEAD") != (tt.want == 405) {
			t.Errorf("%s: Allow %q", tt.name, allow)
		}
		if !k.closed() {
			t.Errorf("%s: connection left open", tt.name)
		}
	}
	if n := served.Load(); n != 0 {
		t.Errorf("the handler saw %d refused requests", n)
	}
}

func TestResponsesWithoutContentLengthAreFramed(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/two-writes":
			w.Header().Set("X-B", "2")
			w.Header().Set("X-A", "1\r\nInjected: yes")
			io.WriteString(w, "hello, ")
			w.(http.Flusher).Flush()
			io.WriteString(w, "world")
		case "/error":
			http.Error(w, "nope", http.StatusTeapot)
		case "/no-content":
			w.WriteHeader(http.StatusNoContent)
		case "/bad-length":
			w.Header().Set("Content-Length", "many")
			io.WriteString(w, "abc")
		}
	})
	_, addr := startServer(t, h, nil)
	k := dial(t, addr)
	for _, tt := range []struct {
		path   string
		status int
		length int64
		body   string
	}{
		{"/two-writes", 200, 12, "hello, world"},
		{"/error", 418, 5, "nope\n"},
		{"/no-content", 204, 0, ""},
		{"/bad-length", 200, 3, "abc"},
		{"/nothing", 200, 0, ""},
	} {
		k.send("GET " + tt.path + " HTTP/1.1\r\nHost: x\r\n\r\n")
		resp, body := k.response("GET")
		if resp.StatusCode != tt.status || body != tt.body || resp.ContentLength != tt.length || resp.Close {
			t.Errorf("%s: status %d length %d body %q close=%v; want %d %d %q keep-alive",
				tt.path, resp.StatusCode, resp.ContentLength, body, resp.Close, tt.status, tt.length, tt.body)
		}
		if tt.status == 204 && resp.Header.Get("Content-Length") != "" {
			t.Errorf("%s: a 204 carries Content-Length", tt.path)
		}
		if tt.path == "/two-writes" {
			if got := resp.Header.Get("X-A"); got != "1  Injected: yes" || resp.Header.Get("Injected") != "" {
				t.Errorf("a header value broke out of its line: X-A=%q Injected=%q", got, resp.Header.Get("Injected"))
			}
		}
	}
}

// TestResponseBytesAreDeterministic pins the encoder: status line, then
// headers sorted by name whatever order the handler set them in.
func TestResponseBytesAreDeterministic(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("X-Cache", "MISS")
		w.Header().Set("Date", "Thu, 01 Jan 2026 00:00:00 GMT")
		w.Header().Set("Content-Type", "video/mpeg")
		w.Header().Set("Content-Length", "3")
		w.WriteHeader(http.StatusPartialContent)
		io.WriteString(w, "abc")
	})
	_, addr := startServer(t, h, nil)
	k := dial(t, addr)
	k.send("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	want := "HTTP/1.1 206 Partial Content\r\nContent-Length: 3\r\nContent-Type: video/mpeg\r\n" +
		"Date: Thu, 01 Jan 2026 00:00:00 GMT\r\nX-Cache: MISS\r\n\r\nabc"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(k.br, got); err != nil || string(got) != want {
		t.Errorf("response bytes %q (%v), want %q", got, err, want)
	}
}

func TestHeadRequest(t *testing.T) {
	_, addr := startServer(t, echo, nil)
	k := dial(t, addr)
	k.send("HEAD /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, body := k.response("HEAD")
	if resp.StatusCode != 200 || resp.ContentLength != int64(len("path=/a query=")) || body != "" {
		t.Errorf("HEAD: status %d length %d body %q", resp.StatusCode, resp.ContentLength, body)
	}
	// No body byte of the HEAD response is in the way of the next one.
	if resp, body := k.response("GET"); resp.StatusCode != 200 || body != "path=/b query=" {
		t.Errorf("GET after HEAD: status %d body %q", resp.StatusCode, body)
	}
}

func TestShortBodyClosesConnection(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Length", "100")
		io.WriteString(w, "only ten b")
		if _, err := w.Write(make([]byte, 200)); !errors.Is(err, http.ErrContentLength) {
			t.Errorf("write past Content-Length: %v, want http.ErrContentLength", err)
		}
	})
	_, addr := startServer(t, h, nil)
	k := dial(t, addr)
	k.send("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) || string(body) != "only ten b" {
		t.Errorf("short response read as %q, %v; want the ten bytes and an unexpected EOF", body, err)
	}
}

func TestHandlerPanicClosesConnectionAndIsLogged(t *testing.T) {
	var logged bytes.Buffer
	var mu sync.Mutex
	log.SetOutput(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logged.Write(p)
	}))
	defer log.SetOutput(os.Stderr)
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/boom":
			panic("boom")
		case "/abort":
			panic(http.ErrAbortHandler)
		}
		echo(w, req)
	})
	_, addr := startServer(t, h, nil)
	for _, path := range []string{"/boom", "/abort"} {
		k := dial(t, addr)
		k.send("GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n")
		if !k.closed() {
			t.Errorf("%s: connection survived a handler panic", path)
		}
	}
	k := dial(t, addr)
	k.send("GET /fine HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp, _ := k.response("GET"); resp.StatusCode != 200 {
		t.Errorf("the server stopped serving after a panic: status %d", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if out := logged.String(); !strings.Contains(out, "boom") || !strings.Contains(out, "httpd_test.go") {
		t.Errorf("panic not logged with its stack: %q", out)
	}
	if strings.Contains(logged.String(), "abort") {
		t.Errorf("http.ErrAbortHandler was logged: %q", logged.String())
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// theConn returns the server's only connection.
func theConn(t *testing.T, srv *Server) *conn {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.conns) != 1 {
		t.Fatalf("%d connections, want 1", len(srv.conns))
	}
	for c := range srv.conns {
		return c
	}
	return nil
}

// TestAbortWatcherIsLazy pins both halves of the context contract: a
// handler that never asks for Done runs with no goroutine reading its
// socket, and one that does is cancelled when its client hangs up.
func TestAbortWatcherIsLazy(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	result := make(chan error, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/hit" {
			_ = req.Context().Err() // looking at the context is not watching it
			entered <- struct{}{}
			<-release
			echo(w, req)
			return
		}
		done := req.Context().Done()
		entered <- struct{}{}
		select {
		case <-done:
			result <- req.Context().Err()
		case <-time.After(5 * time.Second):
			result <- nil
		}
	})
	srv, addr := startServer(t, h, nil)
	k := dial(t, addr)
	k.send("GET /hit HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered
	c := theConn(t, srv)
	if got := c.watch.Load(); got != watchReady {
		t.Errorf("watcher state %d inside a handler that never asked for Done, want %d (not started)", got, watchReady)
	}
	release <- struct{}{}
	if resp, _ := k.response("GET"); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	k.send("GET /relay HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered
	if got := c.watch.Load(); got != watchArmed {
		t.Errorf("watcher state %d after Done, want %d (reading the socket)", got, watchArmed)
	}
	k.c.Close()
	if err := <-result; !errors.Is(err, context.Canceled) {
		t.Errorf("context after the client hung up: %v, want context.Canceled", err)
	}
}

// TestWatcherIsDisarmedBetweenRequests: a handler that armed the watcher
// and finished leaves the connection usable, and the watcher's reads do
// not eat the next request.
func TestWatcherIsDisarmedBetweenRequests(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		stop := context.AfterFunc(req.Context(), func() {}) // what streamFromRelay does
		defer stop()
		echo(w, req)
	})
	_, addr := startServer(t, h, nil)
	k := dial(t, addr)
	for i := 0; i < 50; i++ {
		k.send(fmt.Sprintf("GET /%d HTTP/1.1\r\nHost: x\r\n\r\n", i))
		if resp, body := k.response("GET"); resp.StatusCode != 200 || body != fmt.Sprintf("path=/%d query=", i) {
			t.Fatalf("request %d: status %d body %q", i, resp.StatusCode, body)
		}
	}
}

func TestShutdown(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/slow" {
			w.Header().Set("Content-Length", "10")
			io.WriteString(w, "first")
			entered <- struct{}{}
			<-release
			io.WriteString(w, " last")
			return
		}
		echo(w, req)
	})
	srv, addr := startServer(t, h, nil)

	idle := dial(t, addr)
	idle.send("GET /warm HTTP/1.1\r\nHost: x\r\n\r\n")
	idle.response("GET") // now parked between requests
	busy := dial(t, addr)
	busy.send("GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered

	// A drain that runs out of time says so and cuts what is left.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := srv.Shutdown(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown with a handler stuck: %v, want context.DeadlineExceeded", err)
	}
	if !idle.closed() {
		t.Error("the idle connection survived Shutdown")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("the listener still accepts after Shutdown")
	}
	close(release)
	resp, err := http.ReadResponse(busy.br, nil)
	if err == nil {
		_, err = io.ReadAll(resp.Body)
	}
	if err == nil {
		t.Error("the response in flight completed although the drain timed out and cut it")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve after Shutdown: %v, want http.ErrServerClosed", err)
	}
}

// TestShutdownLetsResponsesFinish: with time to spare, the response in
// flight completes, announces the close, and Shutdown returns nil.
func TestShutdownLetsResponsesFinish(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		entered <- struct{}{}
		<-release
		echo(w, req)
	})
	srv, addr := startServer(t, h, nil)
	k := dial(t, addr)
	k.send("GET /x HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a response in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, body := k.response("GET")
	if resp.StatusCode != 200 || body != "path=/x query=" || !resp.Close {
		t.Errorf("drained response: status %d body %q close=%v, want 200, the body, Connection: close", resp.StatusCode, body, resp.Close)
	}
	if err := <-done; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestKeepAliveRequestAllocs pins the loop's own cost over a real
// loopback connection: one allocation per keep-alive request — the
// string copy of the head that method, path and header values are
// substrings of. Request, URL, both header maps, the rendered head and
// the write vector are the connection's and reused.
func TestKeepAliveRequestAllocs(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 16<<10)
	length := []string{strconv.Itoa(len(body))}
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header()["Content-Length"] = length
		w.Write(body)
	})
	_, addr := startServer(t, h, nil)
	k := dial(t, addr)
	req := []byte("GET /objects/7 HTTP/1.1\r\nHost: bench\r\n\r\n")
	buf := make([]byte, 32<<10)
	fetch := func() {
		if _, err := k.c.Write(req); err != nil {
			t.Fatal(err)
		}
		// The response is head + 16 KiB; its head ends the first read
		// that holds the blank line.
		got, want := 0, -1
		for want < 0 || got < want {
			n, err := k.c.Read(buf[got:])
			if err != nil {
				t.Fatal(err)
			}
			got += n
			if i := bytes.Index(buf[:got], []byte("\r\n\r\n")); want < 0 && i >= 0 {
				want = i + 4 + len(body)
			}
		}
	}
	fetch()
	if allocs := testing.AllocsPerRun(200, fetch); allocs > 1 {
		t.Errorf("a keep-alive request allocates %.1f times, want at most 1 (the head's string copy)", allocs)
	}
}
