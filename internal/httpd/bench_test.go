package httpd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"testing"

	"streamcache/internal/core"
	"streamcache/internal/proxy"
	"streamcache/internal/units"
)

// BenchmarkServeLoopback is the layer rung under the end-to-end hit
// numbers: one handler, writing a body of so many slices the way
// prefixView.WriteRangeTo does (all at once to a writer that takes a
// vector, else one Write per slice), behind net/http.Server and behind
// this package's Server, one keep-alive client over loopback TCP.
// 16 KiB in one slice is a hit_small object, 1 MiB in 16 a hit_large
// one. The client is hand-rolled and allocation-free, so allocs/op is
// the server's.
//
// The miss case is the rung under miss_churn: a real Proxy, 16 objects
// of 1 MiB asked for in turn under an LRU an eighth their size, so that
// every request relays the whole object from an in-memory upstream
// through the ring — eviction, fetch, store adoption and all. writes/op
// is the proxy's relayWrites per request: a Write per chunk behind
// net/http, a vectored write per reader step behind Server.
func BenchmarkServeLoopback(b *testing.B) {
	request := func(path string) []byte {
		return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
	}
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
		for _, server := range loopbackServers {
			b.Run(shape.name+"/"+server.name, func(b *testing.B) {
				serveLoopback(b, server.start, h, [][]byte{request("/objects/7")}, total)
			})
		}
	}

	const objects, size = 16, 1 << 20
	metas := make([]proxy.Meta, objects)
	reqs := make([][]byte, objects)
	for i := range metas {
		metas[i] = proxy.Meta{ID: i, Size: size, Rate: units.KBps(512), Value: 1}
		reqs[i] = request("/objects/" + strconv.Itoa(i))
	}
	catalog, err := proxy.NewCatalog(metas)
	if err != nil {
		b.Fatal(err)
	}
	for _, server := range loopbackServers {
		b.Run("miss-64KiBx16/"+server.name, func(b *testing.B) {
			px, err := proxy.New(proxy.Config{
				Catalog:    catalog,
				OriginURL:  "http://origin.invalid",
				CacheBytes: objects * size / 8,
				NewPolicy:  core.NewLRU,
				Client:     &http.Client{Transport: memUpstream{size}},
			})
			if err != nil {
				b.Fatal(err)
			}
			serveLoopback(b, server.start, px, reqs, size)
			px.Quiesce()
			st := px.Snapshot()
			if st.PrefixHits != 0 || st.BytesFetched != st.Requests*size {
				b.Fatalf("not every request was a full miss: %+v", st)
			}
			b.ReportMetric(float64(st.RelayWrites)/float64(b.N), "writes/op")
		})
	}
}

// loopbackServers are the two servers every case runs behind.
var loopbackServers = []struct {
	name  string
	start func(http.Handler, net.Listener) (stop func())
}{
	{"net-http", func(h http.Handler, ln net.Listener) func() {
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		return func() { srv.Close() }
	}},
	{"httpd", func(h http.Handler, ln net.Listener) func() {
		srv := &Server{Handler: h}
		go srv.Serve(ln)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return func() { srv.Shutdown(ctx) }
	}},
}

// serveLoopback times b.N keep-alive requests, reqs in turn, each
// answered with a head and total body bytes, against h behind a server
// started on a fresh loopback port.
func serveLoopback(b *testing.B, start func(http.Handler, net.Listener) (stop func()), h http.Handler, reqs [][]byte, total int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer start(h, ln)()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(reqs[i%len(reqs)]); err != nil {
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
	b.StopTimer()
}

// memUpstream answers every object request with size bytes (less a
// Range's start) from memory, in reads of at most 32 KiB the way a
// network body arrives, so a miss measures the proxy and not a second
// socket.
type memUpstream struct{ size int64 }

func (m memUpstream) RoundTrip(req *http.Request) (*http.Response, error) {
	var start int64
	status := http.StatusOK
	if r := req.Header.Get("Range"); r != "" {
		if _, err := fmt.Sscanf(r, "bytes=%d-", &start); err != nil {
			return nil, err
		}
		status = http.StatusPartialContent
	}
	return &http.Response{
		StatusCode: status, Status: strconv.Itoa(status) + " " + http.StatusText(status),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{},
		Body: io.NopCloser(&memBody{m.size - start}), ContentLength: m.size - start, Request: req,
	}, nil
}

type memBody struct{ left int64 }

var memBlock [32 << 10]byte

func (m *memBody) Read(p []byte) (int, error) {
	if m.left == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(int64(len(p)), m.left)], memBlock[:])
	m.left -= int64(n)
	return n, nil
}
