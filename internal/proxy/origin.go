package proxy

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Origin is an HTTP server for streaming objects. Each response is
// token-bucket rate-limited to PathRate bytes/s, simulating the
// constrained wide-area path between the proxy cache and the origin
// (Figure 1's bottleneck links). It serves GET /objects/<id> with
// optional single-range "Range: bytes=N-" headers, which is all the
// joint-delivery protocol needs.
type Origin struct {
	catalog  *Catalog
	pathRate float64
}

var _ http.Handler = (*Origin)(nil)

// NewOrigin builds an origin over catalog whose responses are limited to
// pathRate bytes/s (0 = unlimited).
func NewOrigin(catalog *Catalog, pathRate float64) (*Origin, error) {
	if catalog == nil {
		return nil, fmt.Errorf("%w: nil catalog", ErrBadCatalog)
	}
	if pathRate < 0 {
		return nil, fmt.Errorf("%w: negative path rate %v", ErrBadCatalog, pathRate)
	}
	return &Origin{catalog: catalog, pathRate: pathRate}, nil
}

// ServeHTTP serves object content, honoring prefix ranges.
func (o *Origin) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id, ok := parseObjectPath(req.URL.Path)
	if !ok {
		http.NotFound(w, req)
		return
	}
	meta, ok := o.catalog.Get(id)
	if !ok {
		http.NotFound(w, req)
		return
	}
	start, err := parseRangeStart(req.Header.Get("Range"), meta.Size)
	if err != nil {
		rangeNotSatisfiable(w, err, meta.Size)
		return
	}
	length := meta.Size - start
	w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	w.Header().Set("Content-Type", "video/mpeg")
	w.Header().Set("Accept-Ranges", "bytes")
	if start > 0 {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, meta.Size-1, meta.Size))
		w.WriteHeader(http.StatusPartialContent)
	}
	limited := newRateLimitedWriter(w, o.pathRate)
	// Stream in 16 KB chunks so rate limiting and client pacing are smooth.
	const chunk = 16 * 1024
	for off := start; off < meta.Size; off += chunk {
		n := int64(chunk)
		if off+n > meta.Size {
			n = meta.Size - off
		}
		if _, err := limited.Write(Content(id, off, n)); err != nil {
			return // client went away
		}
	}
}

// parseObjectPath extracts the object ID from /objects/<id>.
func parseObjectPath(path string) (int, bool) {
	const prefix = "/objects/"
	if !strings.HasPrefix(path, prefix) {
		return 0, false
	}
	id, err := strconv.Atoi(strings.TrimPrefix(path, prefix))
	if err != nil || id < 0 {
		return 0, false
	}
	return id, true
}

// parseRangeStart parses a "bytes=N-" prefix range header; empty input
// means start at 0. Multi-range and suffix forms are rejected - the
// joint-delivery protocol only ever resumes from a byte offset - and so
// is a start at or past the object's end, which selects no byte.
func parseRangeStart(header string, size int64) (int64, error) {
	if header == "" {
		return 0, nil
	}
	spec, ok := strings.CutPrefix(header, "bytes=")
	if !ok {
		return 0, fmt.Errorf("proxy: unsupported range unit in %q", header)
	}
	startStr, end, ok := strings.Cut(spec, "-")
	if !ok || end != "" || startStr == "" {
		return 0, fmt.Errorf("proxy: unsupported range spec %q (want bytes=N-)", header)
	}
	// ParseUint: a first-byte-pos is digits, no sign.
	start, err := strconv.ParseUint(startStr, 10, 63)
	if err != nil || int64(start) >= size {
		return 0, fmt.Errorf("proxy: invalid range start %q for size %d", startStr, size)
	}
	return int64(start), nil
}

// rangeNotSatisfiable answers 416 for a Range parseRangeStart rejected,
// telling the client the size its next range must fit.
func rangeNotSatisfiable(w http.ResponseWriter, err error, size int64) {
	w.Header().Set("Content-Range", "bytes */"+strconv.FormatInt(size, 10))
	http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
}
