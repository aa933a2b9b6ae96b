package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamcache/internal/proxy"
)

// origin is the driver's own origin server: it serves slices of content
// computed once, because proxy.Origin regenerates every 4 KiB block
// with a freshly seeded generator and would be what the miss path
// measures. It is unthrottled for the same reason. It is also the
// reference path: the client fetching straight from it, with no proxyd
// between, tells how fast this host moves bytes over loopback right now.
type origin struct {
	content [][]byte
	bytes   atomic.Int64 // body bytes written to proxies (reference fetches excluded)
	addr    string
	srv     *http.Server
}

// referenceHeader marks the client's own reference fetches, which are
// not origin traffic of the system under test.
const referenceHeader = "X-Bench-Reference"

func startOrigin(content [][]byte) (*origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &origin{content: content, addr: ln.Addr().String()}
	o.srv = &http.Server{Handler: o, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = o.srv.Serve(ln) }() // returns ErrServerClosed on close
	return o, nil
}

func (o *origin) close() { _ = o.srv.Close() }

func (o *origin) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id := objectOf(req.URL.Path)
	if id < 0 || id >= len(o.content) {
		http.NotFound(w, req)
		return
	}
	body := o.content[id]
	start, ok := rangeStart(req.Header.Get("Range"), len(body))
	if !ok {
		http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	h := w.Header()
	h.Set("Content-Length", strconv.Itoa(len(body)-start))
	h.Set("Content-Type", "video/mpeg")
	if start > 0 {
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, len(body)-1, len(body)))
		w.WriteHeader(http.StatusPartialContent)
	}
	n, _ := w.Write(body[start:]) // a proxy that hangs up early is its own business
	if req.Header.Get(referenceHeader) == "" {
		o.bytes.Add(int64(n))
	}
}

// objectOf is the object ID in a /objects/<id> path, -1 if there is none.
func objectOf(path string) int {
	id, err := strconv.Atoi(strings.TrimPrefix(path, "/objects/"))
	if err != nil {
		return -1
	}
	return id
}

// rangeStart parses "bytes=N-", the only range form the proxies send;
// no header means 0.
func rangeStart(header string, size int) (int, bool) {
	if header == "" {
		return 0, true
	}
	spec, ok := strings.CutPrefix(header, "bytes=")
	from, open := strings.CutSuffix(spec, "-")
	start, err := strconv.Atoi(from)
	return start, ok && open && err == nil && start >= 0 && start <= size
}

// buildContent computes every object's bytes once, on both cores.
func buildContent(cat *proxy.Catalog) [][]byte {
	ids := cat.IDs()
	content := make([][]byte, len(ids))
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(ids); i += conns {
				meta, _ := cat.Get(ids[i]) // ids come from the catalog
				content[ids[i]] = proxy.Content(ids[i], 0, meta.Size)
			}
		}()
	}
	wg.Wait()
	return content
}

// conn is one keep-alive connection of the measuring client: a bare
// HTTP/1.1 GET written and parsed by hand on the calling goroutine.
// net/http's client costs about as much CPU per small request as proxyd
// spends serving it, and proxy.Fetch also hashes every body; on a
// two-core box either would be what the hit path measures.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	head []byte // extra request header lines, CRLF-terminated
	req  int64  // when positive, sent as the request's number (traced pass)
	buf  []byte // 64 KiB: the request is built in it, then the body read through it
}

func newConn(addr, head string) *conn {
	return &conn{addr: addr, head: []byte(head), buf: make([]byte, 64<<10)}
}

func (k *conn) close() {
	if k.c != nil {
		_ = k.c.Close()
		k.c = nil
	}
}

// fetch downloads object id and returns the time from writing the
// request to the first body byte. It checks status and length, and with
// verify every byte against want. After an error the connection is
// dropped and the next fetch dials again.
func (k *conn) fetch(id int, want []byte, verify bool) (ttfb time.Duration, err error) {
	defer func() {
		if err != nil {
			k.close()
		}
	}()
	if k.c == nil {
		c, err := net.DialTimeout("tcp", k.addr, 5*time.Second)
		if err != nil {
			return 0, err
		}
		k.c, k.br = c, bufio.NewReaderSize(c, 4096)
	}
	start := time.Now()
	// A hung node fails the request instead of the benchmark.
	if err := k.c.SetDeadline(start.Add(30 * time.Second)); err != nil {
		return 0, err
	}
	req := append(k.buf[:0], "GET /objects/"...)
	req = strconv.AppendInt(req, int64(id), 10)
	req = append(req, " HTTP/1.1\r\nHost: bench\r\n"...)
	req = append(req, k.head...)
	if k.req > 0 {
		req = append(req, reqHeader+": "...)
		req = strconv.AppendInt(req, k.req, 10)
		req = append(req, "\r\n"...)
	}
	req = append(req, "\r\n"...)
	if _, err := k.c.Write(req); err != nil {
		return 0, err
	}
	line, err := k.br.ReadSlice('\n')
	if err != nil {
		return 0, fmt.Errorf("object %d: status line: %w", id, err)
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		return 0, fmt.Errorf("object %d: status %q", id, bytes.TrimSpace(line))
	}
	length := -1
	for {
		if line, err = k.br.ReadSlice('\n'); err != nil {
			return 0, fmt.Errorf("object %d: headers: %w", id, err)
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		const name = "content-length:"
		if len(line) > len(name) && bytes.EqualFold(line[:len(name)], []byte(name)) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(name):]))); err != nil {
				return 0, fmt.Errorf("object %d: %w", id, err)
			}
		}
	}
	if length != len(want) {
		return 0, fmt.Errorf("object %d: Content-Length %d, want %d", id, length, len(want))
	}
	for off := 0; off < length; {
		n, err := k.br.Read(k.buf[:min(len(k.buf), length-off)])
		if n > 0 {
			if off == 0 {
				ttfb = time.Since(start)
			}
			if verify && !bytes.Equal(k.buf[:n], want[off:off+n]) {
				return 0, fmt.Errorf("object %d: wrong bytes in [%d,%d)", id, off, off+n)
			}
			off += n
		}
		if err != nil && off < length {
			return 0, fmt.Errorf("object %d: body at %d of %d: %w", id, off, length, err)
		}
	}
	return ttfb, nil
}
