// Package debug serves live observability over HTTP: the guardrail metrics
// registry as Prometheus text on /metrics, plus net/http/pprof profiles.
// It exists as its own package (rather
// than inside obs) so the single `go` statement that runs the HTTP server
// is confined to one vetguard-exempt leaf — the rest of the pipeline
// still routes all concurrency through internal/par.
package debug

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guardrail-db/guardrail/internal/obs"
)

// published holds the registry /metrics renders. Serve swaps it, so
// tests (and a CLI that serves twice) each see their latest registry.
var published struct {
	mu  sync.Mutex
	reg *obs.Registry
}

// extras holds caller-registered handlers (e.g. the serve daemon's
// /debug/flight). The live mux is rebuilt under the mutex and swapped
// atomically, and every debug server consults it per request — so
// registration works before or after Serve, and later registrations of
// the same pattern win instead of panicking like ServeMux.Handle.
var extras struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	mux      atomic.Pointer[http.ServeMux]
}

// Handle registers handler under pattern on every debug server, current
// and future. Built-in routes (/metrics, /debug/pprof/*)
// take precedence over extras.
func Handle(pattern string, handler http.Handler) {
	extras.mu.Lock()
	defer extras.mu.Unlock()
	if extras.handlers == nil {
		extras.handlers = map[string]http.Handler{}
	}
	extras.handlers[pattern] = handler
	patterns := make([]string, 0, len(extras.handlers))
	for p := range extras.handlers {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	mux := http.NewServeMux()
	for _, p := range patterns {
		mux.Handle(p, extras.handlers[p])
	}
	extras.mux.Store(mux)
}

// extrasHandler routes a request through the caller-registered handlers,
// 404ing when nothing matches.
func extrasHandler(w http.ResponseWriter, r *http.Request) {
	if m := extras.mux.Load(); m != nil {
		if h, pattern := m.Handler(r); pattern != "" {
			h.ServeHTTP(w, r)
			return
		}
	}
	http.NotFound(w, r)
}

// Server is a running debug HTTP server.
type Server struct {
	// Addr is the resolved listen address (useful with ":0").
	Addr string

	srv *http.Server
	ln  net.Listener
}

// Serve publishes reg and starts an HTTP server on addr exposing a
// Prometheus-format /metrics endpoint and /debug/pprof/*. It uses a
// private mux so importing net/http/pprof-style handlers never pollutes
// http.DefaultServeMux. The listener is bound synchronously — a bad addr
// fails here, not in the background goroutine.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	published.mu.Lock()
	published.reg = reg
	published.mu.Unlock()

	mux := http.NewServeMux()
	mux.HandleFunc("/", extrasHandler)
	mux.HandleFunc("/metrics", metricsHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug: listen %s: %w", addr, err)
	}
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go s.serve() // nakedgo-exempt package: server lifetime is the process lifetime
	return s, nil
}

func (s *Server) serve() {
	// ErrServerClosed after Close is the expected shutdown path; any other
	// error means the debug server died, which must not take the pipeline
	// down with it.
	_ = s.srv.Serve(s.ln)
}

// closeTimeout bounds how long Close waits for in-flight requests. Debug
// requests are short (a /metrics scrape) — anything still
// running after this is a stuck pprof profile and gets force-closed.
const closeTimeout = 2 * time.Second

// Close stops the server: it drains in-flight requests for up to
// closeTimeout, then force-closes any stragglers. The drain matters at
// test teardown and CLI exit, where a /metrics scrape admitted just
// before Close must be allowed to finish writing rather than racing the
// listener teardown and getting its connection reset mid-body.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		if cerr := s.srv.Close(); cerr != nil {
			return cerr
		}
		return err
	}
	return nil
}
