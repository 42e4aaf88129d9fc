// Package server puts the Synergy array on the wire: an HTTP/JSON
// service exposing per-tenant secure-memory keyspaces with token
// auth, bounded per-rank admission queues (backpressure), and
// automatic load shedding when the §IV-B corrected-error analysis
// (core.ErrorLog.Analyze) flags an adversarial error-injection storm.
//
// Topology: every tenant owns a full *core.Array — its own encryption
// and MAC keys, its own integrity-tree roots per rank — so tenants are
// cryptographically isolated, not merely address-partitioned. The
// data plane (read/write/batch) rides the engine's concurrent serving
// surface; scrub and repair are control-plane calls that bypass
// admission and shedding, because they are how an operator recovers a
// degraded tenant.
//
// Every request is timed end to end into the shared telemetry
// registry under the rpc_* op labels, so ServeMetrics exposes p50/p99
// service SLOs next to the engine-side numbers.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/core"
	"synergy/internal/dimm"
	"synergy/internal/persist"
	"synergy/internal/telemetry"
)

// maxBody bounds any request body (a 64 MiB batch is ~1M lines —
// far beyond MaxBatchLines; the bound exists to stop hostile payloads
// before JSON decoding, not to size real traffic).
const maxBody = 64 << 20

// DefaultMaxBatchLines bounds the per-request batch size.
const DefaultMaxBatchLines = 4096

// TenantConfig declares one keyspace.
type TenantConfig struct {
	// Name labels the tenant in /v1/info and logs.
	Name string
	// Token is the bearer token that selects this tenant. Tokens must
	// be unique across tenants; the empty token makes the tenant the
	// default for unauthenticated requests (useful for local tools).
	Token string
	// Array configures the engine built for this tenant (DataLines,
	// Ranks, MetadataCache, ...). Ignored when Backend is set. The
	// server forces Telemetry to the server's registry.
	Array core.Config
	// Backend, when non-nil, serves this tenant from an existing
	// engine instead of building one — the chaos harness uses this to
	// put its instrumented array behind the wire. The caller keeps
	// lifecycle ownership (scrub, flush).
	Backend *core.Array
	// Snapshots, when non-nil, is where POST /v1/snapshot commits this
	// tenant's sealed checkpoints and POST /v1/restore reads them back.
	// Overrides the Config.DataDir-derived file store; nil with no
	// DataDir disables the durability endpoints for the tenant.
	Snapshots persist.Store
}

// Config parameterizes the service.
type Config struct {
	// Tenants is the keyspace roster. At least one is required.
	Tenants []TenantConfig
	// QueueDepth bounds each (tenant, rank) admission queue: at most
	// this many requests may be queued-or-executing on one rank at
	// once; the rest get 429. Default 64.
	QueueDepth int
	// QueueWait is how long a request may wait for an admission slot
	// before 429 — the "bounded queue" part of backpressure. Default
	// 2ms; negative means reject immediately.
	QueueWait time.Duration
	// ScrubInterval starts a background patrol scrubber per tenant
	// array. 0 disables (e.g. when the caller scrubs its Backend
	// itself).
	ScrubInterval time.Duration
	// AnalyzeEvery is the shedding watcher tick: each window the
	// server re-runs ErrorLog.Analyze per rank and measures the
	// window's corrected-error delta. Default 250ms.
	AnalyzeEvery time.Duration
	// ShedMinCorrections is the per-window corrected-error count that,
	// together with a suspected-DoS assessment, engages shedding.
	// Default 8.
	ShedMinCorrections uint64
	// MaxBatchLines bounds one batch request. Default 4096.
	MaxBatchLines int
	// AllowInject enables POST /v1/inject, the fault-injection test
	// hook. Never enable it on a real deployment.
	AllowInject bool
	// DataDir, when non-empty, gives every tenant without an explicit
	// Snapshots store a crash-atomic file store at
	// DataDir/<tenant>.snap. The directory must exist.
	DataDir string
	// Telemetry receives rpc_* op counters and latency histograms
	// (and is forced onto tenant arrays the server builds). Nil
	// disables instrumentation.
	Telemetry *telemetry.Registry
	// Flight configures the anomaly flight recorder built when
	// Telemetry is set (zero value = defaults). If the registry
	// already has a recorder attached, it is reused unchanged.
	Flight telemetry.FlightConfig
	// DisableFlight turns the flight recorder off entirely.
	DisableFlight bool
	// SLO is the per-tenant SLO template (zero value = defaults:
	// 99.9% availability, p99 < 5ms, 1m/10m burn windows). The
	// tenant's name becomes the tracker's name.
	SLO telemetry.SLOConfig
	// TraceSampleEvery deep-traces every Nth data-plane request even
	// without a client traceparent, so the flight recorder's retained
	// anomalies carry engine stage events. 0 deep-traces only
	// requests that arrive with a traceparent header.
	TraceSampleEvery int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueueWait == 0 {
		c.QueueWait = 2 * time.Millisecond
	}
	if c.AnalyzeEvery <= 0 {
		c.AnalyzeEvery = 250 * time.Millisecond
	}
	if c.ShedMinCorrections == 0 {
		c.ShedMinCorrections = 8
	}
	if c.MaxBatchLines <= 0 {
		c.MaxBatchLines = DefaultMaxBatchLines
	}
	return c
}

// Server is a running (or startable) synergy-server instance.
type Server struct {
	// Addr is the bound listener address, set by Start — useful with
	// ":0".
	Addr string

	cfg     Config
	tel     *telemetry.Registry
	flight  *telemetry.FlightRecorder
	tenants []*tenant
	byToken map[string]*tenant
	mux     *http.ServeMux

	// traceTick drives TraceSampleEvery head-sampling.
	traceTick atomic.Uint64

	httpSrv   *http.Server
	ln        net.Listener
	serveErr  chan error
	wctx      context.Context // background-machinery context, set by Start
	watchStop context.CancelFunc
	watchDone chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// New builds the service and its tenant engines (Start binds the
// listener).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("server: at least one tenant required")
	}
	s := &Server{
		cfg:      cfg,
		tel:      cfg.Telemetry,
		byToken:  make(map[string]*tenant, len(cfg.Tenants)),
		serveErr: make(chan error, 1),
	}
	if cfg.Telemetry != nil && !cfg.DisableFlight {
		if s.flight = cfg.Telemetry.Flight(); s.flight == nil {
			s.flight = telemetry.NewFlightRecorder(cfg.Flight)
			cfg.Telemetry.SetFlight(s.flight)
		}
	}
	for i, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("server: tenant %d: empty name", i)
		}
		if _, dup := s.byToken[tc.Token]; dup {
			return nil, fmt.Errorf("server: tenant %q: duplicate token", tc.Name)
		}
		arr := tc.Backend
		owned := false
		if arr == nil {
			acfg := tc.Array
			acfg.Telemetry = cfg.Telemetry
			var err error
			arr, err = core.NewArray(acfg)
			if err != nil {
				return nil, fmt.Errorf("server: tenant %q: %w", tc.Name, err)
			}
			owned = true
		}
		snaps := tc.Snapshots
		if snaps == nil && cfg.DataDir != "" {
			if strings.ContainsAny(tc.Name, `/\`) {
				return nil, fmt.Errorf("server: tenant %q: name not usable as a DataDir filename", tc.Name)
			}
			snaps = persist.NewFileStore(filepath.Join(cfg.DataDir, tc.Name+".snap"))
		}
		t := &tenant{
			name:            tc.Name,
			token:           tc.Token,
			index:           i,
			arr:             arr,
			owned:           owned,
			snaps:           snaps,
			slots:           make([]chan struct{}, arr.Ranks()),
			lastCorrections: make([]uint64, arr.Ranks()),
		}
		if cfg.Telemetry != nil {
			sloCfg := cfg.SLO
			sloCfg.Name = tc.Name
			t.slo = telemetry.NewSLO(sloCfg)
			cfg.Telemetry.RegisterSLO(t.slo)
		}
		for r := range t.slots {
			t.slots[r] = make(chan struct{}, cfg.QueueDepth)
		}
		s.tenants = append(s.tenants, t)
		s.byToken[tc.Token] = t
	}
	s.mux = s.routes()
	return s, nil
}

// Start binds addr (":0" picks an ephemeral port, published via
// s.Addr), starts serving, and launches the shedding watcher and —
// when configured — the per-tenant patrol scrubbers.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	s.ln = ln
	s.Addr = ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.serveErr <- s.httpSrv.Serve(ln) }()

	wctx, cancel := context.WithCancel(context.Background())
	s.wctx = wctx
	s.watchStop = cancel
	s.watchDone = make(chan struct{})
	go s.watch(wctx)
	if s.cfg.ScrubInterval > 0 {
		for _, t := range s.tenants {
			// Under ctl: the listener is already serving, so a restore
			// request could race this assignment.
			t.ctl.Lock()
			t.scrubber = t.arr.StartScrubber(wctx, s.cfg.ScrubInterval)
			t.ctl.Unlock()
		}
	}
	return nil
}

// watch is the shedding watcher: every AnalyzeEvery it re-evaluates
// each tenant's §IV-B assessment and window correction rate.
func (s *Server) watch(ctx context.Context) {
	defer close(s.watchDone)
	tick := time.NewTicker(s.cfg.AnalyzeEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for _, t := range s.tenants {
				t.analyze(s.cfg.ShedMinCorrections)
			}
		}
	}
}

// Close drains in-flight requests (bounded by ctx), stops the watcher
// and scrubbers, and flushes every tenant's cached metadata so stored
// state is externally consistent at exit. Idempotent.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		var errs []error
		if s.httpSrv != nil {
			if err := s.httpSrv.Shutdown(ctx); err != nil {
				errs = append(errs, fmt.Errorf("server: shutdown: %w", err))
			}
			if err := <-s.serveErr; err != nil && err != http.ErrServerClosed {
				errs = append(errs, err)
			}
		}
		if s.watchStop != nil {
			s.watchStop()
			<-s.watchDone
		}
		for _, t := range s.tenants {
			t.ctl.Lock()
			if t.scrubber != nil {
				t.scrubber.Stop()
				t.scrubber = nil
			}
			t.ctl.Unlock()
			if err := t.arr.Sync(); err != nil {
				errs = append(errs, fmt.Errorf("server: tenant %q flush: %w", t.name, err))
			}
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}

// RestoreAll loads each snapshot-store-backed tenant's committed
// snapshot into its array — the boot-time recovery path; call it
// between New and Start. Tenants whose store is empty boot fresh; any
// verification failure (corrupt, torn, mismatched) aborts with that
// tenant's typed error, so a tampered checkpoint can never silently
// serve. Returns how many tenants restored.
func (s *Server) RestoreAll(ctx context.Context) (int, error) {
	n := 0
	for _, t := range s.tenants {
		if t.snaps == nil {
			continue
		}
		t.ctl.Lock()
		err := t.arr.Restore(ctx, t.snaps)
		t.ctl.Unlock()
		switch {
		case err == nil:
			n++
		case errors.Is(err, core.ErrNoSnapshot):
			// Fresh boot for this tenant.
		default:
			return n, fmt.Errorf("server: tenant %q: restoring snapshot: %w", t.name, err)
		}
	}
	return n, nil
}

// SnapshotAll checkpoints every snapshot-store-backed tenant — the
// shutdown counterpart of RestoreAll. Safe while serving (each tenant
// quiesces only for its own snapshot) and after Close.
func (s *Server) SnapshotAll(ctx context.Context) error {
	var errs []error
	for _, t := range s.tenants {
		if t.snaps == nil {
			continue
		}
		t.ctl.Lock()
		err := t.arr.Snapshot(ctx, t.snaps)
		t.ctl.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("server: tenant %q: checkpoint: %w", t.name, err))
		}
	}
	return errors.Join(errs...)
}

// Handler exposes the route table (tests drive it via httptest too).
func (s *Server) Handler() http.Handler { return s.mux }

// Tenant returns the named tenant's engine (nil when unknown) — the
// in-process escape hatch for harnesses that need direct fault
// injection next to RPC traffic.
func (s *Server) Tenant(name string) *core.Array {
	for _, t := range s.tenants {
		if t.name == name {
			return t.arr
		}
	}
	return nil
}

// routes builds the endpoint table.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	// Health endpoints are unauthenticated infrastructure surface:
	// /healthz is liveness (always 200, body carries detail), /readyz
	// is readiness (503 while any tenant is degraded — shedding,
	// restore in progress, or an SLO burn alert). /debug/flight dumps
	// the anomaly flight recorder.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	// Data plane: admission + shedding apply.
	s.route(mux, "POST /v1/read", telemetry.OpRPCRead, true, s.handleRead)
	s.route(mux, "POST /v1/write", telemetry.OpRPCWrite, true, s.handleWrite)
	s.route(mux, "POST /v1/read_batch", telemetry.OpRPCReadBatch, true, s.handleReadBatch)
	s.route(mux, "POST /v1/write_batch", telemetry.OpRPCWriteBatch, true, s.handleWriteBatch)
	// Control plane: how an operator patrols and recovers a tenant —
	// never queued behind data traffic, never shed.
	s.route(mux, "POST /v1/scrub", telemetry.OpRPCScrub, false, s.handleScrub)
	s.route(mux, "POST /v1/repair", telemetry.OpRPCRepair, false, s.handleRepair)
	// Durability: checkpoint and recovery are control plane too — an
	// operator restoring a shedding tenant must not be shed.
	s.route(mux, "POST /v1/snapshot", telemetry.OpRPCSnapshot, false, s.handleSnapshot)
	s.route(mux, "POST /v1/restore", telemetry.OpRPCRestore, false, s.handleRestore)
	s.route(mux, "POST /v1/inject", telemetry.OpRPCRepair, false, s.handleInject)
	s.route(mux, "GET /v1/stats", telemetry.OpRPCRead, false, s.handleStats)
	s.route(mux, "GET /v1/info", telemetry.OpRPCRead, false, s.handleInfo)
	return mux
}

// controlOp reports whether op is a control-plane operation whose
// spans the flight recorder always retains (AnomalyControl).
func controlOp(op telemetry.Op) bool {
	switch op {
	case telemetry.OpRPCScrub, telemetry.OpRPCRepair,
		telemetry.OpRPCSnapshot, telemetry.OpRPCRestore:
		return true
	}
	return false
}

// route wraps a handler with auth, the shedding gate (data plane
// only), tracing, telemetry, SLO accounting, and JSON encoding.
//
// Tracing: every request gets a span. A client traceparent continues
// that trace, marks the span AnomalyRequested (always retained) and
// deep-traces it — the engine records per-stage events into it; so
// does every TraceSampleEvery-th data-plane request. The span is
// offered to the flight recorder when the request completes, and the
// response carries `traceparent` (this span's identity) plus
// `X-Synergy-Trace-Captured: 0|1` so callers can measure capture.
func (s *Server) route(mux *http.ServeMux, pattern string, op telemetry.Op, dataPlane bool,
	h func(t *tenant, r *http.Request, sp *telemetry.Span) (int, any)) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.authTenant(r)
		if !ok {
			writeJSON(w, http.StatusUnauthorized, errorBody{codeUnauthorized, ErrUnauthorized.Error()})
			return
		}
		trace, parent, hasTP := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
		sp := telemetry.BeginSpan(op, trace, parent)
		sp.Tenant = t.name
		if controlOp(op) {
			sp.Flag(telemetry.AnomalyControl)
		}
		switch {
		case hasTP:
			sp.Flag(telemetry.AnomalyRequested)
			sp.Deep = true
		case dataPlane && s.cfg.TraceSampleEvery > 0:
			sp.Deep = s.traceTick.Add(1)%uint64(s.cfg.TraceSampleEvery) == 0
		}

		start := time.Now()
		var status int
		var body any
		if dataPlane && t.shedding.Load() {
			status, body = errResponse(ErrShedding)
		} else {
			status, body = h(t, r, sp)
		}
		dur := time.Since(start)
		s.tel.CountOp(op, t.index)
		s.tel.ObserveOp(op, t.index, dur)
		if status >= 400 {
			s.tel.CountOpError(op, t.index)
		}
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			s.tel.CountOp(telemetry.OpRPCRejected, t.index)
			w.Header().Set("Retry-After", "1")
		}
		if eb, isErr := body.(errorBody); isErr {
			sp.SetError(eb.Code)
			switch eb.Code {
			case codePoisoned, codeAttack:
				sp.Flag(telemetry.AnomalyFailClosed)
			case codeBackpressure:
				sp.Flag(telemetry.AnomalyBackpressure)
			case codeShedding:
				sp.Flag(telemetry.AnomalyShed)
			default:
				sp.Flag(telemetry.AnomalyError)
			}
		}
		if dataPlane {
			// Availability burn counts service-caused refusals (5xx and
			// 429 backpressure); a 4xx — including the deliberate 410
			// poisoned fail-closed answer — is a correct response.
			t.slo.Observe(status >= 500 || status == http.StatusTooManyRequests, dur)
		}
		sp.End()
		captured := s.flight.Offer(sp)
		w.Header().Set("traceparent", telemetry.Traceparent(sp.Trace, sp.ID))
		if captured {
			w.Header().Set("X-Synergy-Trace-Captured", "1")
		} else {
			w.Header().Set("X-Synergy-Trace-Captured", "0")
		}
		writeJSON(w, status, body)
	})
}

// authTenant resolves the request's bearer token to a tenant. A
// missing Authorization header maps to the empty-token tenant when one
// is configured.
func (s *Server) authTenant(r *http.Request) (*tenant, bool) {
	token := r.Header.Get("X-Synergy-Token")
	if token == "" {
		if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
			token = auth[7:]
		}
	}
	t, ok := s.byToken[token]
	return t, ok
}

func decode(r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(nil, r.Body, maxBody)
	return json.NewDecoder(r.Body).Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if body == nil {
		body = struct{}{}
	}
	_ = json.NewEncoder(w).Encode(body)
}

// errResponse maps an error to its (status, wire body) pair.
func errResponse(err error) (int, any) {
	status, code := statusAndCode(err)
	return status, errorBody{Code: code, Error: err.Error()}
}

func badRequest(err error) (int, any) {
	return http.StatusBadRequest, errorBody{Code: codeBadRequest, Error: err.Error()}
}

func (s *Server) handleRead(t *tenant, r *http.Request, sp *telemetry.Span) (int, any) {
	var req readReq
	if err := decode(r, &req); err != nil {
		return badRequest(err)
	}
	release, err := t.admitOne(t.rankOf(req.Line), s.cfg.QueueWait)
	if err != nil {
		return errResponse(err)
	}
	defer release()
	buf := make([]byte, core.LineSize)
	var info core.ReadInfo
	if sp.IsDeep() {
		info, err = t.arr.ReadTraced(req.Line, buf, sp)
	} else {
		info, err = t.arr.Read(req.Line, buf)
	}
	if err != nil {
		return errResponse(err)
	}
	return http.StatusOK, readResp{Data: buf, Corrected: info.Corrected, Preemptive: info.Preemptive}
}

func (s *Server) handleWrite(t *tenant, r *http.Request, sp *telemetry.Span) (int, any) {
	var req writeReq
	if err := decode(r, &req); err != nil {
		return badRequest(err)
	}
	release, err := t.admitOne(t.rankOf(req.Line), s.cfg.QueueWait)
	if err != nil {
		return errResponse(err)
	}
	defer release()
	if sp.IsDeep() {
		err = t.arr.WriteTraced(req.Line, req.Data, sp)
	} else {
		err = t.arr.Write(req.Line, req.Data)
	}
	if err != nil {
		return errResponse(err)
	}
	return http.StatusOK, struct{}{}
}

// batchMask computes the rank set a batch touches (out-of-range lines
// still mod cleanly; the engine rejects them after admission).
func (t *tenant) batchMask(lines []uint64) []bool {
	mask := make([]bool, t.arr.Ranks())
	for _, l := range lines {
		mask[t.rankOf(l)] = true
	}
	return mask
}

func (s *Server) handleReadBatch(t *tenant, r *http.Request, _ *telemetry.Span) (int, any) {
	var req batchReadReq
	if err := decode(r, &req); err != nil {
		return badRequest(err)
	}
	if len(req.Lines) == 0 {
		return http.StatusOK, batchReadResp{}
	}
	if len(req.Lines) > s.cfg.MaxBatchLines {
		return badRequest(fmt.Errorf("batch of %d lines exceeds the %d-line limit", len(req.Lines), s.cfg.MaxBatchLines))
	}
	release, err := t.admitRanks(t.batchMask(req.Lines), s.cfg.QueueWait)
	if err != nil {
		return errResponse(err)
	}
	defer release()
	dst := make([]byte, len(req.Lines)*core.LineSize)
	infos := make([]core.ReadInfo, len(req.Lines))
	berr := t.arr.ReadBatchInto(req.Lines, dst, infos)
	resp := batchReadResp{Data: dst}
	for k, info := range infos {
		if info.Corrected {
			resp.Corrected = append(resp.Corrected, k)
		}
	}
	if berr != nil {
		var be *core.BatchError
		if !errors.As(berr, &be) {
			return errResponse(berr) // malformed batch: rejected whole
		}
		resp.Failed = failuresToWire(be)
		// Failed slots carry unspecified bytes; never ship them.
		for _, f := range be.Failed {
			clear(dst[f.Index*core.LineSize : (f.Index+1)*core.LineSize])
		}
	}
	return http.StatusOK, resp
}

func (s *Server) handleWriteBatch(t *tenant, r *http.Request, _ *telemetry.Span) (int, any) {
	var req batchWriteReq
	if err := decode(r, &req); err != nil {
		return badRequest(err)
	}
	if len(req.Lines) == 0 {
		return http.StatusOK, batchWriteResp{}
	}
	if len(req.Lines) > s.cfg.MaxBatchLines {
		return badRequest(fmt.Errorf("batch of %d lines exceeds the %d-line limit", len(req.Lines), s.cfg.MaxBatchLines))
	}
	release, err := t.admitRanks(t.batchMask(req.Lines), s.cfg.QueueWait)
	if err != nil {
		return errResponse(err)
	}
	defer release()
	berr := t.arr.WriteBatch(req.Lines, req.Data)
	resp := batchWriteResp{}
	if berr != nil {
		var be *core.BatchError
		if !errors.As(berr, &be) {
			return errResponse(berr)
		}
		resp.Failed = failuresToWire(be)
	}
	return http.StatusOK, resp
}

func (s *Server) handleScrub(t *tenant, r *http.Request, _ *telemetry.Span) (int, any) {
	rep, err := t.arr.Scrub(r.Context())
	if err != nil {
		return errResponse(err)
	}
	return http.StatusOK, scrubResp{Scanned: rep.Scanned, Corrected: rep.Corrected, Poisoned: rep.Poisoned}
}

func (s *Server) handleRepair(t *tenant, r *http.Request, _ *telemetry.Span) (int, any) {
	var req repairReq
	if err := decode(r, &req); err != nil {
		return badRequest(err)
	}
	if err := t.arr.RepairChip(req.Rank, req.Chip); err != nil {
		return errResponse(err)
	}
	return http.StatusOK, struct{}{}
}

func (s *Server) handleInject(t *tenant, r *http.Request, _ *telemetry.Span) (int, any) {
	if !s.cfg.AllowInject {
		return http.StatusForbidden, errorBody{codeBadRequest, "fault injection disabled (start the server with -allow-inject)"}
	}
	var req injectReq
	if err := decode(r, &req); err != nil {
		return badRequest(err)
	}
	if req.Line >= t.arr.DataLines() {
		return errResponse(fmt.Errorf("line %d: %w", req.Line, core.ErrOutOfRange))
	}
	if len(req.Chips) == 0 {
		req.Chips = []int{2}
	}
	if req.Mask == 0 {
		req.Mask = 1
	}
	m := t.arr.Rank(t.rankOf(req.Line))
	inner := req.Line / uint64(t.arr.Ranks())
	faults := make([]core.ChipFault, len(req.Chips))
	for k, c := range req.Chips {
		if c < 0 || c >= dimm.Chips {
			return badRequest(fmt.Errorf("chip %d out of range [0,%d)", c, dimm.Chips))
		}
		faults[k] = core.ChipFault{Chip: c, Mask: [dimm.SliceSize]byte{req.Mask, byte(k + 1)}}
	}
	if err := m.InjectTransients(m.Layout().DataAddr(inner), faults); err != nil {
		return errResponse(err)
	}
	return http.StatusOK, struct{}{}
}

// handleSnapshot checkpoints the tenant: quiesce, seal, commit. The
// patrol scrubber keeps running — it serializes on the same rank locks
// the snapshot holds.
func (s *Server) handleSnapshot(t *tenant, r *http.Request, _ *telemetry.Span) (int, any) {
	if t.snaps == nil {
		return badRequest(errors.New("tenant has no snapshot store (set -data on the server or TenantConfig.Snapshots)"))
	}
	t.ctl.Lock()
	defer t.ctl.Unlock()
	if err := t.arr.Snapshot(r.Context(), t.snaps); err != nil {
		return errResponse(err)
	}
	return http.StatusOK, struct{}{}
}

// handleRestore replaces the tenant's array state with its committed
// snapshot. The patrol scrubber is stopped for the install (the engine
// refuses to restore a live array) and restarted afterwards whether or
// not the restore succeeded — a refused restore leaves the tenant
// serving its pre-call state, which still wants patrolling.
func (s *Server) handleRestore(t *tenant, r *http.Request, _ *telemetry.Span) (int, any) {
	if t.snaps == nil {
		return badRequest(errors.New("tenant has no snapshot store (set -data on the server or TenantConfig.Snapshots)"))
	}
	t.ctl.Lock()
	defer t.ctl.Unlock()
	t.restoring.Store(true)
	defer t.restoring.Store(false)
	if t.scrubber != nil {
		t.scrubber.Stop()
		t.scrubber = nil
	}
	err := t.arr.Restore(r.Context(), t.snaps)
	if s.cfg.ScrubInterval > 0 && s.wctx != nil && s.wctx.Err() == nil {
		t.scrubber = t.arr.StartScrubber(s.wctx, s.cfg.ScrubInterval)
	}
	if err != nil {
		return errResponse(err)
	}
	return http.StatusOK, struct{}{}
}

func (s *Server) handleStats(t *tenant, _ *http.Request, _ *telemetry.Span) (int, any) {
	return http.StatusOK, t.arr.Stats()
}

func (s *Server) handleInfo(t *tenant, _ *http.Request, _ *telemetry.Span) (int, any) {
	return http.StatusOK, infoResp{
		Tenant:   t.name,
		Lines:    t.arr.DataLines(),
		Ranks:    t.arr.Ranks(),
		Shedding: t.shedding.Load(),
	}
}
