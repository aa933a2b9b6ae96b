package httpd

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// scriptConn is a net.Conn whose reads hand out a fixed byte string a
// few bytes at a time, so a head arrives split at every possible place.
type scriptConn struct {
	data  []byte
	chunk int
}

func (s *scriptConn) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.data[:min(s.chunk, len(s.data))])
	s.data = s.data[n:]
	return n, nil
}

func (s *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (s *scriptConn) Close() error                     { return nil }
func (s *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (s *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (s *scriptConn) SetDeadline(time.Time) error      { return nil }
func (s *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (s *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// headEnd is the reference for where a head ends: after the first line
// that is empty once its LF or CRLF is off. -1: no such line.
func headEnd(b []byte) int {
	for at := 0; ; {
		i := bytes.IndexByte(b[at:], '\n')
		if i < 0 {
			return -1
		}
		if line := b[at : at+i]; len(line) == 0 || len(line) == 1 && line[0] == '\r' {
			return at + i + 1
		}
		at += i + 1
	}
}

// FuzzRequestHead is differential against net/http: whatever head the
// loop accepts, http.ReadRequest accepts too and reads the same method,
// path, query, host and header values out of it; nothing with a body is
// accepted; whatever the input, nothing panics and no byte behind a
// head's blank line is consumed with it — the request pipelined behind
// the fuzzed bytes still parses.
func FuzzRequestHead(f *testing.F) {
	for _, seed := range []string{
		"GET /objects/7 HTTP/1.1\r\nHost: bench\r\n\r\n",
		"HEAD /stats HTTP/1.0\r\n\r\n",
		"GET /objects/7?a=1&b=%20#f HTTP/1.1\nhost: x\nRANGE:  bytes=5- \t\nAccept: a\nAccept: b\n\n",
		"GET /a%41/%zz HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /caf\xc3\xa9/\"q\"?? HTTP/1.1\r\nHost: x\r\nPragma: no-cache\r\n\r\n",
		"GET //x//y HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nX: a\r\n b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost : x\r\n: v\r\nX-\x00: 1\r\n\r\n",
		"GET  / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\r\nHost: x\r\n\r\n",
		"\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nX-Long: " + string(bytes.Repeat([]byte("a"), 17<<10)) + "\r\n\r\n",
	} {
		f.Add([]byte(seed), uint8(len(seed)))
	}
	const sentinel = "GET /sentinel HTTP/1.1\r\nHost: s\r\n\r\n"
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		stream := append(append([]byte{}, data...), sentinel...)
		src := &scriptConn{data: stream, chunk: int(chunk)%97 + 1}
		c := newConn(&Server{}, src)
		for off := 0; off < len(stream); {
			head, err := c.readHead()
			end := headEnd(stream[off:])
			if end < 0 || end > maxHeaderBytes {
				// The sentinel ends in a blank line, so only size can
				// be in the way.
				if !errors.Is(err, errHeadTooLarge) {
					t.Fatalf("head of %d bytes at %d: %q, %v; want errHeadTooLarge", end, off, head, err)
				}
				return
			}
			if err != nil || !bytes.Equal(head, stream[off:off+end]) {
				t.Fatalf("head at %d: %q, %v; want %q", off, head, err, stream[off:off+end])
			}
			wasSentinel := off == len(data)
			off += end
			if held := append(append([]byte{}, c.buf[c.pos:c.end]...), src.data...); !bytes.Equal(held, stream[off:]) {
				t.Fatalf("after the head ending at %d the connection holds %q, the stream has %q", off, held, stream[off:])
			}
			status := c.parseHead(head)
			if wasSentinel && (status != 0 || c.req.URL.Path != "/sentinel" || c.req.Host != "s") {
				t.Fatalf("the pipelined request parsed to status %d path %q host %q", status, c.req.URL.Path, c.req.Host)
			}
			if status != 0 {
				switch status {
				case 400, 405, 501, 505:
					return // refused: the loop closes the connection here
				}
				t.Fatalf("%q refused with status %d", head, status)
			}
			ref, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(head)))
			if err != nil {
				t.Fatalf("the loop accepts %q, net/http refuses it: %v", head, err)
			}
			got := c.req
			if got.Method != ref.Method || got.URL.Path != ref.URL.Path || got.URL.RawQuery != ref.URL.RawQuery ||
				got.Host != ref.Host || got.ProtoMinor != ref.ProtoMinor || got.RequestURI != ref.RequestURI {
				t.Fatalf("%q: loop %s %q ? %q host %q 1.%d, net/http %s %q ? %q host %q 1.%d", head,
					got.Method, got.URL.Path, got.URL.RawQuery, got.Host, got.ProtoMinor,
					ref.Method, ref.URL.Path, ref.URL.RawQuery, ref.Host, ref.ProtoMinor)
			}
			if got.Method != "GET" && got.Method != "HEAD" {
				t.Fatalf("%q: method %s accepted", head, got.Method)
			}
			if ref.ContentLength != 0 || len(ref.TransferEncoding) > 0 {
				t.Fatalf("%q: accepted with a body (length %d, encoding %v)", head, ref.ContentLength, ref.TransferEncoding)
			}
			if _, own := got.Header["Cache-Control"]; !own {
				delete(ref.Header, "Cache-Control") // net/http adds it for Pragma: no-cache
			}
			if !reflect.DeepEqual(map[string][]string(got.Header), map[string][]string(ref.Header)) {
				t.Fatalf("%q: loop headers %q, net/http %q", head, got.Header, ref.Header)
			}
		}
	})
}
