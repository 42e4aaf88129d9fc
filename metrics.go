package synergy

// Live observability: ServeMetrics exposes a telemetry registry over
// HTTP — Prometheus text on /metrics, a JSON snapshot on
// /metrics.json, plus the standard Go introspection surfaces
// (expvar on /debug/vars, pprof under /debug/pprof/). A typical
// wiring:
//
//	reg := synergy.NewTelemetry()
//	mem, _ := synergy.New(synergy.Config{DataLines: 1 << 20, Telemetry: reg})
//	srv, _ := synergy.ServeMetrics("localhost:9091", reg)
//	defer srv.Close()
//
// `synergy top` polls /metrics.json and renders live rates; any
// Prometheus scraper can consume /metrics directly.

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"synergy/internal/telemetry"
)

// MetricsServer is a running metrics endpoint. Close releases the
// listener; in-flight scrapes are given a short grace period.
type MetricsServer struct {
	// Addr is the listener's resolved address ("127.0.0.1:9091") —
	// useful when ServeMetrics was given port 0.
	Addr string

	srv      *http.Server
	ln       net.Listener
	err      chan error
	shutdown sync.Once
	closeErr error
}

// ServeMetrics starts an HTTP server on addr (e.g. "localhost:9091",
// or ":0" for an ephemeral port) serving reg — telemetry.Default()
// when no registry is passed — and returns once the listener is
// bound. Routes:
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/metrics.json  JSON snapshot (telemetry.Snapshot wire format)
//	/debug/flight  anomaly flight recorder dump (when one is attached;
//	               ?format=chrome exports Chrome trace_event JSON)
//	/debug/vars    expvar (Go runtime memstats, cmdline)
//	/debug/pprof/  CPU, heap, goroutine, block profiles
//
// The returned server runs until Close. Serving never blocks the
// engine: exporters read striped counters at scrape time.
func ServeMetrics(addr string, reg ...*Telemetry) (*MetricsServer, error) {
	r := telemetry.Default()
	if len(reg) > 0 {
		r = reg[0]
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("synergy: metrics listener: %w", err)
	}
	srv := &http.Server{
		Handler:           metricsMux(r),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ms := &MetricsServer{
		Addr: ln.Addr().String(),
		srv:  srv,
		ln:   ln,
		err:  make(chan error, 1),
	}
	go func() { ms.err <- srv.Serve(ln) }()
	return ms, nil
}

// Close shuts the metrics server down and releases its port. It is
// idempotent: later calls return the first call's result.
func (ms *MetricsServer) Close() error {
	ms.shutdown.Do(func() {
		if err := ms.srv.Close(); err != nil {
			ms.closeErr = err
			return
		}
		if err := <-ms.err; err != http.ErrServerClosed {
			ms.closeErr = err
		}
	})
	return ms.closeErr
}

// metricsMux builds the endpoint's route table.
func metricsMux(r *Telemetry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
		f := r.Flight()
		if f == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		recs := f.Records()
		w.Header().Set("Content-Type", "application/json")
		if req.URL.Query().Get("format") == "chrome" {
			_ = telemetry.WriteChromeTrace(w, recs)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Stats   telemetry.FlightStats    `json:"stats"`
			Records []telemetry.FlightRecord `json:"records"`
		}{f.Stats(), recs})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
