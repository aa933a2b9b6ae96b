package httpd

import (
	"net/http"
	"net/textproto"
	"net/url"
	"strings"
)

// parseHead fills the connection's request from head, the bytes
// readHead returned, and returns 0, or the status to refuse it with.
// The loop speaks a subset of what net/http accepts, never a superset:
// CRLF or LF line ends, origin-form targets, token header names with no
// space before the colon, no folded lines, no control bytes in values —
// and of those only GET and HEAD without a body.
func (c *conn) parseHead(head []byte) int {
	// The request's one allocation: method, target and every header
	// name and value below are substrings of this copy, so the read
	// buffer is free for the next head while the handler runs.
	s := string(head)
	line, rest := cutLine(s)
	method, line, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(line, " ")
	if !ok1 || !ok2 || !isToken(method) {
		return http.StatusBadRequest
	}
	req := c.req
	switch proto {
	case "HTTP/1.1":
		req.ProtoMinor = 1
	case "HTTP/1.0":
		req.ProtoMinor = 0
	default:
		if strings.HasPrefix(proto, "HTTP/") {
			return http.StatusHTTPVersionNotSupported
		}
		return http.StatusBadRequest
	}
	if !c.parseTarget(target) {
		return http.StatusBadRequest
	}

	h := c.reqHeader
	clear(h)
	c.vals = c.vals[:0]
	for {
		line, rest = cutLine(rest)
		if line == "" {
			break
		}
		k, v, ok := strings.Cut(line, ":")
		v = strings.Trim(v, " \t")
		if !ok || !isToken(k) || !isFieldValue(v) {
			return http.StatusBadRequest
		}
		k = textproto.CanonicalMIMEHeaderKey(k)
		if vv, dup := h[k]; dup {
			h[k] = append(vv, v)
		} else {
			c.vals = append(c.vals, v)
			h[k] = c.vals[len(c.vals)-1 : len(c.vals) : len(c.vals)]
		}
	}

	// As net/http: Host moves from the map to its field, and HTTP/1.1
	// requires exactly one.
	hosts := h["Host"]
	if len(hosts) > 1 || len(hosts) == 0 && req.ProtoMinor == 1 {
		return http.StatusBadRequest
	}
	req.Host = ""
	if len(hosts) == 1 {
		req.Host = hosts[0]
	}
	delete(h, "Host")
	if _, te := h["Transfer-Encoding"]; te {
		return http.StatusNotImplemented
	}
	if cl := h["Content-Length"]; len(cl) > 1 || len(cl) == 1 && cl[0] != "0" {
		return http.StatusBadRequest // a body: the loop reads none
	}
	if method != http.MethodGet && method != http.MethodHead {
		return http.StatusMethodNotAllowed
	}

	req.Method, req.RequestURI, req.Proto = method, target, proto
	req.Close = req.ProtoMinor == 0 || hasToken(h["Connection"], "close")
	req.Form, req.PostForm, req.MultipartForm = nil, nil, nil
	return 0
}

// parseTarget fills the connection's URL from an origin-form request
// target. A path of unreserved characters and slashes, which is every
// path the proxy routes, is its own decoding and is split by hand; any
// other target goes through the parser net/http uses.
func (c *conn) parseTarget(target string) bool {
	if target == "" || target[0] != '/' {
		return false
	}
	path, query, hasQuery := strings.Cut(target, "?")
	plain := true
	for i := 0; i < len(path) && plain; i++ {
		b := path[i]
		plain = 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' ||
			b == '/' || b == '-' || b == '_' || b == '.' || b == '~'
	}
	for i := 0; i < len(query) && plain; i++ {
		plain = query[i] > ' ' && query[i] != 0x7f
	}
	if plain {
		c.url = url.URL{Path: path, RawQuery: query, ForceQuery: hasQuery && query == ""}
		return true
	}
	// Escaped or unusual: no path the proxy serves is.
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return false
	}
	c.url = *u
	return true
}

// cutLine splits s after its first line and strips the line's LF or
// CRLF.
func cutLine(s string) (line, rest string) {
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

// isToken reports whether s is a non-empty RFC 7230 token.
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		b := s[i]
		if 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' {
			continue
		}
		if !strings.Contains("!#$%&'*+-.^_`|~", s[i:i+1]) {
			return false
		}
	}
	return s != ""
}

// isFieldValue reports whether s holds no control byte but HTAB.
func isFieldValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' && b != '\t' || b == 0x7f {
			return false
		}
	}
	return true
}

// hasToken reports whether one of the comma-separated elements of vals
// is token, compared without case.
func hasToken(vals []string, token string) bool {
	for _, v := range vals {
		for v != "" {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.TrimSpace(elem), token) {
				return true
			}
		}
	}
	return false
}
