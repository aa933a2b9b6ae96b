package httpd

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"strconv"
	"testing"
)

// BenchmarkServeLoopback is the layer rung under the end-to-end hit
// numbers: one handler, writing a body of so many slices the way
// prefixView.WriteRangeTo does (all at once to a writer that takes a
// vector, else one Write per slice), behind net/http.Server and behind
// this package's Server, one keep-alive client over loopback TCP.
// 16 KiB in one slice is a hit_small object, 1 MiB in 16 a hit_large
// one. The client is hand-rolled and allocation-free, so allocs/op is
// the server's.
func BenchmarkServeLoopback(b *testing.B) {
	for _, shape := range []struct {
		name         string
		slices, size int
	}{
		{"16KiBx1", 1, 16 << 10},
		{"64KiBx16", 16, 64 << 10},
	} {
		body := make([][]byte, shape.slices)
		for i := range body {
			body[i] = bytes.Repeat([]byte{byte('a' + i)}, shape.size)
		}
		total := shape.slices * shape.size
		length := []string{strconv.Itoa(total)}
		h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header()["Content-Length"] = length
			if bw, ok := w.(interface {
				WriteBuffers([][]byte) (int64, error)
			}); ok {
				bw.WriteBuffers(body)
				return
			}
			for _, p := range body {
				w.Write(p)
			}
		})
		servers := []struct {
			name  string
			start func(net.Listener) (stop func())
		}{
			{"net-http", func(ln net.Listener) func() {
				srv := &http.Server{Handler: h}
				go srv.Serve(ln)
				return func() { srv.Close() }
			}},
			{"httpd", func(ln net.Listener) func() {
				srv := &Server{Handler: h}
				go srv.Serve(ln)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return func() { srv.Shutdown(ctx) }
			}},
		}
		for _, server := range servers {
			b.Run(shape.name+"/"+server.name, func(b *testing.B) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer server.start(ln)()
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				req := []byte("GET /objects/7 HTTP/1.1\r\nHost: bench\r\n\r\n")
				buf := make([]byte, 64<<10)
				b.SetBytes(int64(total))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Write(req); err != nil {
						b.Fatal(err)
					}
					// Head and body: the head ends in the read that
					// first holds a blank line.
					for got, want := 0, -1; want < 0 || got < want; {
						n, err := c.Read(buf)
						if err != nil {
							b.Fatal(err)
						}
						if want < 0 {
							if at := bytes.Index(buf[:n], []byte("\r\n\r\n")); at >= 0 {
								want = got + at + 4 + total
							}
						}
						got += n
					}
				}
			})
		}
	}
}
