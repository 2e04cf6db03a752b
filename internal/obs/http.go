package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
)

// Server exposes live run introspection over HTTP in the expvar style:
// named variables are registered as lazy producers and evaluated per
// request, so the page always shows the current state of a running
// simulation. net/http/pprof is mounted under /debug/pprof/ for CPU and
// heap profiling of long campaigns.
//
// Routes:
//
//	/              index of registered variables
//	/vars          all variables as one JSON object
//	/vars/<name>   one variable as JSON
//	/debug/pprof/  the standard pprof handlers
type Server struct {
	mux *http.ServeMux

	mu   sync.Mutex
	vars map[string]func() any
}

// NewServer builds a server with the pprof handlers mounted.
func NewServer() *Server {
	s := &Server{mux: http.NewServeMux(), vars: make(map[string]func() any)}
	s.mux.HandleFunc("/", s.index)
	s.mux.HandleFunc("/vars", s.allVars)
	s.mux.HandleFunc("/vars/", s.oneVar)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Publish registers (or replaces) a lazy variable. The producer runs on
// every request, so it must be safe to call concurrently with the
// simulation (Recorder.Snapshot and Progress.Snapshot are).
func (s *Server) Publish(name string, produce func() any) {
	s.mu.Lock()
	s.vars[name] = produce
	s.mu.Unlock()
}

// names returns the registered variable names, sorted.
func (s *Server) names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.vars))
	for n := range s.vars {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "pradram live introspection")
	fmt.Fprintln(w, "  /vars")
	for _, n := range s.names() {
		fmt.Fprintf(w, "  /vars/%s\n", n)
	}
	fmt.Fprintln(w, "  /debug/pprof/")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) allVars(w http.ResponseWriter, _ *http.Request) {
	out := make(map[string]any)
	s.mu.Lock()
	producers := make(map[string]func() any, len(s.vars))
	for n, f := range s.vars {
		producers[n] = f
	}
	s.mu.Unlock()
	for n, f := range producers {
		out[n] = f()
	}
	writeJSON(w, out)
}

func (s *Server) oneVar(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/vars/")
	s.mu.Lock()
	f, ok := s.vars[name]
	s.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, f())
}

// Start binds addr and serves on it in the background until the process
// exits. The bind is synchronous, so an address that cannot be listened on
// is an error here, before the caller has built or run anything; variables
// may be published after Start.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Serve returns only when the listener fails, and nothing closes it
	// before the process exits.
	go func() { _ = http.Serve(ln, s.mux) }()
	return nil
}
