package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"synergy/internal/core"
	"synergy/internal/server"
	"synergy/internal/telemetry"
)

// tenantFlags collects repeated -tenant name:token:lines:ranks specs
// (token may be empty to accept unauthenticated requests).
type tenantFlags []server.TenantConfig

func (t *tenantFlags) String() string { return fmt.Sprintf("%d tenants", len(*t)) }

func (t *tenantFlags) Set(spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		return fmt.Errorf("want name:token:lines:ranks, got %q", spec)
	}
	lines, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return fmt.Errorf("lines in %q: %w", spec, err)
	}
	ranks, err := strconv.Atoi(parts[3])
	if err != nil {
		return fmt.Errorf("ranks in %q: %w", spec, err)
	}
	*t = append(*t, server.TenantConfig{
		Name:  parts[0],
		Token: parts[1],
		Array: core.Config{DataLines: lines, Ranks: ranks, MetadataCache: 256},
	})
	return nil
}

// runServer is `synergy server`: it puts a Synergy secure-memory array
// on the wire: an HTTP/JSON service with per-tenant keyspaces (each
// tenant gets its own Array — own keys, own integrity-tree roots),
// bearer token auth, bounded per-rank admission queues, and automatic
// load shedding when the corrected-error pattern looks like an
// injection storm (§IV-B analysis). Telemetry — including per-RPC
// latency histograms — is served on -metrics next to the engine
// counters.
//
//	synergy server                                  # one open tenant on :7070
//	synergy server -addr :7070 -metrics :9091
//	synergy server -tenant alpha:s3cret:4096:4 -tenant beta:hunter2:1024:2
//	synergy server -data /var/lib/synergy            # durable: restore on boot, checkpoint on SIGTERM
//	synergy server -allow-inject                    # enable the fault-injection test hook
func runServer(ctx context.Context, args []string, _, stderr io.Writer) error {
	var (
		tenants tenantFlags
		cfg     server.Config
		sh      shared
	)
	fs := newFlagSet("server", stderr)
	addr := fs.String("addr", ":7070", "service listen address")
	sh.register(fs, true, false)
	fs.Var(&tenants, "tenant", "tenant spec name:token:lines:ranks (repeatable; token may be empty)")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", 64, "admission slots per (tenant, rank)")
	fs.DurationVar(&cfg.QueueWait, "queue-wait", 2*time.Millisecond, "max wait for an admission slot before 429")
	fs.DurationVar(&cfg.ScrubInterval, "scrub-interval", time.Second, "background patrol scrubber tick (0 disables)")
	fs.DurationVar(&cfg.AnalyzeEvery, "analyze-every", 250*time.Millisecond, "load-shedding watcher window")
	shedMin := fs.Uint64("shed-min-corrections", 8, "corrected errors per window that (with a suspected-DoS assessment) engage shedding")
	fs.BoolVar(&cfg.AllowInject, "allow-inject", false, "enable POST /v1/inject (fault-injection test hook — never in production)")
	fs.StringVar(&cfg.DataDir, "data", "", "snapshot directory: restore each tenant on boot, checkpoint every tenant on shutdown")
	fs.IntVar(&cfg.TraceSampleEvery, "trace-sample-every", 0, "deep-trace every Nth data-plane request without a client traceparent (0 = only explicit traceparents)")
	fs.BoolVar(&cfg.DisableFlight, "no-flight", false, "disable the anomaly flight recorder (/debug/flight)")
	flightCap := fs.Int("flight-ring", 0, "flight recorder slots per ring (0 = default 64)")
	sloAvail := fs.Float64("slo-availability", 0, "per-tenant availability target, e.g. 0.999 (0 = default)")
	sloLatency := fs.Duration("slo-latency", 0, "per-tenant latency objective, e.g. 5ms (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Flight.RingCapacity = *flightCap
	cfg.SLO.AvailabilityTarget = *sloAvail
	cfg.SLO.LatencyObjective = *sloLatency
	cfg.ShedMinCorrections = *shedMin
	if len(tenants) == 0 {
		tenants = tenantFlags{{
			Name:  "default",
			Token: "",
			Array: core.Config{DataLines: 4096, Ranks: 4, MetadataCache: 256},
		}}
	}
	cfg.Tenants = tenants
	reg, stop, err := sh.start("server", stderr)
	if err != nil {
		return err
	}
	defer stop()
	if reg == nil {
		reg = telemetry.New() // the server's RPC histograms, SLOs and flight recorder need one
	}
	cfg.Telemetry = reg

	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o700); err != nil {
			return fmt.Errorf("creating -data dir: %w", err)
		}
	}

	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	if cfg.DataDir != "" {
		// Restore before the listener opens: a tenant must never serve
		// fresh-array reads when a committed checkpoint exists, and a
		// tampered checkpoint must refuse the whole boot (non-zero
		// exit), never fall back to an empty array.
		n, err := s.RestoreAll(ctx)
		if err != nil {
			return fmt.Errorf("restore on boot: %w", err)
		}
		fmt.Fprintf(stderr, "synergy server: restored %d tenant(s) from %s\n", n, cfg.DataDir)
	}
	if err := s.Start(*addr); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "synergy server: serving %d tenant(s) on %s\n", len(cfg.Tenants), s.Addr)
	fmt.Fprintf(stderr, "synergy server: health on http://%s/healthz /readyz, traces on /debug/flight\n", s.Addr)

	<-ctx.Done()
	fmt.Fprintln(stderr, "synergy server: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(sctx); err != nil {
		return err
	}
	if cfg.DataDir != "" {
		if err := s.SnapshotAll(sctx); err != nil {
			return fmt.Errorf("checkpoint on shutdown: %w", err)
		}
		fmt.Fprintf(stderr, "synergy server: checkpointed all tenants to %s\n", cfg.DataDir)
	}
	return nil
}
