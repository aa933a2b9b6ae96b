package httpd

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestStressAbortsAndReuse drives the loop the way a busy edge sees it:
// keep-alive clients that mostly read their responses to the end, send
// the next request the moment they have, and now and then hang up in
// the middle — against a handler that, like streamFromRelay, registers
// on the request context and writes its body in pieces. Every complete
// response must be intact; nothing may panic, race or leak.
func TestStressAbortsAndReuse(t *testing.T) {
	chunk := make([]byte, 8<<10)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, _ := strconv.Atoi(req.URL.Path[1:])
		w.Header().Set("Content-Length", strconv.Itoa(n*len(chunk)))
		ctx := req.Context()
		if n%2 == 1 { // odd: the relay path, which watches for the client leaving
			stop := context.AfterFunc(ctx, func() {})
			defer stop()
		}
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	})
	_, addr := startServer(t, h, nil)
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var c net.Conn
			var br *bufio.Reader
			for time.Now().Before(deadline) {
				if c == nil {
					var err error
					if c, err = net.Dial("tcp", addr); err != nil {
						t.Error(err)
						return
					}
					br = bufio.NewReader(c)
				}
				n := 1 + rng.Intn(6)
				pipelined := rng.Intn(4) == 0
				req := fmt.Sprintf("GET /%d HTTP/1.1\r\nHost: x\r\n\r\n", n)
				if pipelined {
					req += req
				}
				if _, err := io.WriteString(c, req); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if rng.Intn(5) == 0 { // walk away mid-response
					io.CopyN(io.Discard, br, int64(rng.Intn(n*len(chunk))))
					c.Close()
					c = nil
					continue
				}
				responses := 1
				if pipelined {
					responses = 2
				}
				for range responses {
					resp, err := http.ReadResponse(br, nil)
					if err != nil {
						t.Errorf("response: %v", err)
						return
					}
					got, err := io.Copy(io.Discard, resp.Body)
					if err != nil || got != int64(n*len(chunk)) {
						t.Errorf("body: %d bytes, %v; want %d", got, err, n*len(chunk))
						return
					}
				}
			}
			if c != nil {
				c.Close()
			}
		}()
	}
	wg.Wait()
}
