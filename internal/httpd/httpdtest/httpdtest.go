// Package httpdtest starts an httpd.Server on a loopback listener, so
// that a test's proxy is served by the wire loop proxyd runs and not by
// net/http: what httptest.NewServer is to http.Server.
package httpdtest

import (
	"context"
	"net"
	"net/http"
	"time"

	"streamcache/internal/httpd"
)

// Server is a started httpd.Server.
type Server struct {
	// URL is the server's base URL, http://127.0.0.1:port.
	URL string
	srv *httpd.Server
}

// NewServer serves h on a fresh loopback port. Like httptest.NewServer
// it panics when it cannot listen.
func NewServer(h http.Handler) *Server {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic("httpdtest: " + err.Error())
	}
	s := &Server{URL: "http://" + ln.Addr().String(), srv: &httpd.Server{Handler: h}}
	go func() { _ = s.srv.Serve(ln) }() // returns http.ErrServerClosed on Close or Kill
	return s
}

// Close drains the server the way a terminated proxyd does — idle
// connections closed, responses in flight finished — for at most five
// seconds, then closes what is left.
func (s *Server) Close() { s.shutdown(5 * time.Second) }

// Kill closes the listener and every connection at once: a crashed node.
func (s *Server) Kill() { s.shutdown(0) }

func (s *Server) shutdown(grace time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // the deadline passing is Kill's purpose and Close's fallback
}
