package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// NewStatusHandler builds the ops endpoint mux:
//
//	/metrics       Prometheus text exposition of reg
//	/healthz       health from status, which returns (healthy, detail)
//	/traces        recent query traces from ring as JSON (?n=K for the last K)
//	/debug/pprof/  the standard runtime profiles
//
// /healthz responds 200 while healthy — with "ok" plus the detail line, so
// a server running in cache-only degraded mode can say so without failing
// its liveness check — and 503 with the detail otherwise. reg and ring may
// be nil; status may be nil (always healthy). The handler performs no
// locking beyond the registry's own, so it is safe to serve while the
// instrumented system runs at full speed.
func NewStatusHandler(reg *Registry, ring *TraceRing, status func() (bool, string)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			_ = reg.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		ok, detail := true, ""
		if status != nil {
			ok, detail = status()
		}
		if !ok {
			if detail == "" {
				detail = "closed"
			}
			http.Error(w, detail, http.StatusServiceUnavailable)
			return
		}
		if detail != "" {
			fmt.Fprintf(w, "ok %s\n", detail)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		traces := ring.Snapshot()
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			if n < len(traces) {
				traces = traces[len(traces)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total  uint64       `json:"total"`
			Traces []QueryTrace `json:"traces"`
		}{Total: ring.Total(), Traces: traces})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// OpsServer is a running ops HTTP listener.
type OpsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server for h on addr (host:port; port 0 picks a free
// one) and returns once the listener is bound.
func Serve(addr string, h http.Handler) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	o := &OpsServer{ln: ln, srv: &http.Server{Handler: h}}
	go func() { _ = o.srv.Serve(ln) }()
	return o, nil
}

// Addr returns the bound address.
func (o *OpsServer) Addr() string { return o.ln.Addr().String() }

// Close stops the listener and closes open connections.
func (o *OpsServer) Close() error {
	if o == nil {
		return nil
	}
	return o.srv.Close()
}
