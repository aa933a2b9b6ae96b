package httpd

import (
	"net/http"
	"slices"
	"strconv"
	"time"
)

// startResponse resets the response state for the request just parsed.
func (c *conn) startResponse() {
	clear(c.header)
	c.status, c.wroteHeader, c.headSent = http.StatusOK, false, false
	c.isHead = c.req.Method == http.MethodHead
	c.closeAfter = c.req.Close
	c.contentLength, c.written = -1, 0
	c.body = c.body[:0]
}

// Header returns the response header map. What it holds when the first
// body byte is written (or the handler returns) is what is sent.
func (c *conn) Header() http.Header { return c.header }

// WriteHeader fixes the status and how the body is framed: a response
// whose handler set a valid Content-Length streams every write straight
// to the socket; any other is buffered and given its length when the
// handler returns (the loop does not speak chunked encoding, so such a
// response is held in memory whole — /stats and error texts).
func (c *conn) WriteHeader(status int) {
	if c.wroteHeader {
		return
	}
	c.wroteHeader = true
	c.status = status
	if cl := c.header["Content-Length"]; len(cl) == 1 {
		if n, err := strconv.ParseInt(cl[0], 10, 64); err == nil && n >= 0 {
			c.contentLength = n
			return
		}
	}
	delete(c.header, "Content-Length")
}

// Write sends p as WriteBuffers does.
func (c *conn) Write(p []byte) (int, error) {
	c.one[0] = p
	n, err := c.WriteBuffers(c.one[:])
	c.one[0] = nil
	return int(n), err
}

// WriteBuffers writes bufs as the next body bytes in one vectored write,
// which the response's head joins when it has not been sent yet: a
// cached prefix of any number of segments costs one writev, head
// included. It returns the body bytes written. bufs is not retained.
func (c *conn) WriteBuffers(bufs [][]byte) (int64, error) {
	if !c.wroteHeader {
		c.WriteHeader(http.StatusOK)
	}
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	if c.contentLength < 0 {
		if !c.isHead {
			for _, b := range bufs {
				c.body = append(c.body, b...)
			}
		}
		c.written += total
		return total, nil
	}
	if c.written+total > c.contentLength {
		return 0, http.ErrContentLength
	}
	if c.isHead {
		c.written += total
		return total, nil
	}
	c.vec = c.vec[:0]
	var headLen int64
	if !c.headSent {
		c.renderHead()
		c.vec = append(c.vec, c.head)
		headLen = int64(len(c.head))
	}
	c.vec = append(c.vec, bufs...)
	n, err := c.writev()
	n = max(n-headLen, 0)
	c.written += n
	return n, err
}

// writev sends c.vec in one vectored write. net.Buffers.WriteTo consumes
// its receiver — it advances the slice past what it wrote and nils the
// entries, dropping their references — so the receiver is a second slice
// header over vec's array, and vec keeps the array for the next write.
func (c *conn) writev() (int64, error) {
	raceRelease(c.rwc)
	c.wv = c.vec
	return c.wv.WriteTo(c.rwc)
}

// Flush does nothing: a streamed write is on the wire when Write
// returns, and a buffered body cannot leave before its length is known.
func (c *conn) Flush() {}

// finish ends the response after the handler returned: it sends what is
// still held — a head no body byte followed, a buffered body with the
// length it turned out to have — and reports whether the connection can
// carry another request. One that ended short of its Content-Length (an
// upstream died mid-relay) cannot: closing is the only way left to tell
// the client.
func (c *conn) finish() bool {
	if !c.wroteHeader {
		c.WriteHeader(http.StatusOK)
	}
	if !c.headSent {
		bodyAllowed := c.status >= 200 && c.status != http.StatusNoContent && c.status != http.StatusNotModified
		if c.contentLength < 0 && bodyAllowed && (!c.isHead || c.written > 0) {
			c.contentLength = c.written
			// /stats or an error text: an object response brings its own.
			c.lenVal[0] = strconv.FormatInt(c.written, 10)
			c.header["Content-Length"] = c.lenVal[:]
		}
		c.renderHead()
		c.vec = append(c.vec[:0], c.head)
		if !c.isHead && bodyAllowed {
			c.vec = append(c.vec, c.body)
		}
		if _, err := c.writev(); err != nil {
			return false
		}
	}
	complete := c.isHead || c.contentLength < 0 || c.written == c.contentLength
	return complete && !c.closeAfter
}

// renderHead renders the status line and the headers, sorted by name so
// that a response's bytes are a function of its content, into c.head. It
// decides here whether the connection closes after this response, so
// that the response can say so.
func (c *conn) renderHead() {
	c.headSent = true
	h := c.header
	if c.closeAfter = c.closeAfter || c.srv.closing.Load() || hasToken(h["Connection"], "close"); c.closeAfter {
		h["Connection"] = closeValue
	}
	if _, set := h["Date"]; !set {
		h["Date"] = c.srv.dateHeader()
	}
	c.keys = c.keys[:0]
	for k := range h {
		c.keys = append(c.keys, k)
	}
	slices.Sort(c.keys)
	c.head = append(c.head[:0], "HTTP/1.1 "...)
	c.head = strconv.AppendInt(c.head, int64(c.status), 10)
	c.head = append(c.head, ' ')
	c.head = append(c.head, http.StatusText(c.status)...)
	c.head = append(c.head, "\r\n"...)
	for _, k := range c.keys {
		for _, v := range h[k] {
			c.head = append(c.head, k...)
			c.head = append(c.head, ": "...)
			at := len(c.head)
			c.head = append(c.head, v...)
			for i := at; i < len(c.head); i++ {
				if c.head[i] == '\r' || c.head[i] == '\n' {
					c.head[i] = ' ' // a value cannot start a line of its own
				}
			}
			c.head = append(c.head, "\r\n"...)
		}
	}
	c.head = append(c.head, "\r\n"...)
}

var closeValue = []string{"close"}

// refuse answers a request the loop does not speak — or a head that
// came too slowly or too large — with a bare status, worded as
// http.Error words it, and closes. The client may still be sending (a
// 20 KiB head): closing on unread input resets the connection and can
// destroy the answer before it is read, so the write side is shut first
// and the input drained, briefly.
func (c *conn) refuse(status int) {
	c.startResponse()
	c.isHead, c.closeAfter = false, true // the request's method may not even have parsed
	if status == http.StatusMethodNotAllowed {
		c.header.Set("Allow", "GET, HEAD")
	}
	http.Error(c, http.StatusText(status), status)
	c.finish()
	if hc, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite()
	}
	c.rwc.SetReadDeadline(time.Now().Add(lingerTimeout))
	for {
		if _, err := c.rwc.Read(c.buf); err != nil {
			return
		}
	}
}
