package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/core"
	"synergy/internal/server"
	"synergy/internal/telemetry"
)

// loadOptions is the parsed load command line.
type loadOptions struct {
	addr       string
	token      string
	duration   time.Duration
	workers    int
	rate       float64 // open loop when > 0
	readFrac   float64
	batchFrac  float64
	batchSize  int
	zipfS      float64
	seed       int64
	burstEvery time.Duration
	burstLen   time.Duration
	burstX     int
	traceEvery int
	jsonOut    bool
}

func parseLoad(args []string, stderr io.Writer) (loadOptions, error) {
	var o loadOptions
	fs := newFlagSet("load", stderr)
	fs.StringVar(&o.addr, "addr", "localhost:7070", "synergy server address")
	fs.StringVar(&o.token, "token", "", "tenant bearer token")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "run length")
	fs.IntVar(&o.workers, "workers", 16, "concurrent request goroutines")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop target ops/sec (0 = closed loop)")
	fs.Float64Var(&o.readFrac, "read-frac", 0.9, "fraction of single-line ops that are reads")
	fs.Float64Var(&o.batchFrac, "batch-frac", 0, "fraction of ops issued as batches")
	fs.IntVar(&o.batchSize, "batch-size", 8, "lines per batch op")
	fs.Float64Var(&o.zipfS, "zipf", 1.1, "zipfian key-skew exponent (s > 1; hotter keys with larger s)")
	fs.Int64Var(&o.seed, "seed", 1, "RNG seed for key/mix streams")
	fs.DurationVar(&o.burstEvery, "burst-every", 0, "burst phase period (0 disables bursts)")
	fs.DurationVar(&o.burstLen, "burst-len", 500*time.Millisecond, "burst phase length")
	fs.IntVar(&o.burstX, "burst-x", 4, "offered-load multiplier during a burst")
	fs.IntVar(&o.traceEvery, "trace-every", 0, "send a traceparent on every Nth op and report the flight-recorder capture rate (0 disables)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the machine-readable report")
	if err := fs.Parse(args); err != nil {
		return loadOptions{}, err
	}
	if o.workers < 1 {
		o.workers = 1
	}
	if o.batchSize < 1 {
		o.batchSize = 1
	}
	if o.burstX < 1 {
		o.burstX = 1
	}
	// Each check below stands where the generator would otherwise
	// panic mid-run or silently skew the mix; the negated comparisons
	// also refuse NaN.
	switch {
	case !(o.zipfS > 1):
		return loadOptions{}, fmt.Errorf("-zipf %g: the key skew needs s > 1", o.zipfS)
	case !(o.rate >= 0) || o.rate > 0 && time.Duration(float64(time.Second)/o.rate) <= 0:
		return loadOptions{}, fmt.Errorf("-rate %g: want 0 (closed loop) or a positive rate of at most 1e9 ops/s", o.rate)
	case !(o.readFrac >= 0 && o.readFrac <= 1):
		return loadOptions{}, fmt.Errorf("-read-frac %g is outside [0, 1]", o.readFrac)
	case !(o.batchFrac >= 0 && o.batchFrac <= 1):
		return loadOptions{}, fmt.Errorf("-batch-frac %g is outside [0, 1]", o.batchFrac)
	}
	return o, nil
}

// opLatency summarizes one op kind in the report.
type opLatency struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	Meanus float64 `json:"mean_us"`
}

// loadReport is the -json output.
type loadReport struct {
	Addr        string  `json:"addr"`
	Mode        string  `json:"mode"` // "closed" or "open"
	Workers     int     `json:"workers"`
	RateTarget  float64 `json:"rate_target,omitempty"`
	DurationSec float64 `json:"duration_sec"`
	ReadFrac    float64 `json:"read_frac"`
	BatchFrac   float64 `json:"batch_frac"`
	BatchSize   int     `json:"batch_size"`
	ZipfS       float64 `json:"zipf_s"`
	Bursts      int     `json:"bursts"`
	Lines       uint64  `json:"keyspace_lines"`
	Ops         uint64  `json:"ops"`
	Throughput  float64 `json:"throughput_ops_sec"`
	Rejected    uint64  `json:"rejected"` // backpressure + shedding refusals
	FailClosed  uint64  `json:"fail_closed"`
	OtherErrors uint64  `json:"other_errors"`
	// Tracing (present when -trace-every is set): how many requests
	// carried a traceparent and how many the server's flight recorder
	// reported captured (explicitly traced spans are always retained,
	// so a rate under 1.0 means the recorder was disabled or sampling
	// was reconfigured server-side).
	TracesSent       uint64               `json:"traces_sent,omitempty"`
	TracesCaptured   uint64               `json:"traces_captured,omitempty"`
	TraceCaptureRate float64              `json:"trace_capture_rate,omitempty"`
	PerOp            map[string]opLatency `json:"per_op"`
}

// loadgen is the shared state of one run.
type loadgen struct {
	o     loadOptions
	c     *server.Client
	reg   *telemetry.Registry
	lines uint64

	ops        atomic.Uint64
	rejected   atomic.Uint64
	failClosed atomic.Uint64
	otherErrs  atomic.Uint64

	// Tracing state for -trace-every.
	traceTick      atomic.Uint64
	tracesSent     atomic.Uint64
	tracesCaptured atomic.Uint64

	// bursting is read by workers (closed loop) each op; the burst
	// phaser flips it.
	bursting atomic.Bool
}

// oneOp issues a single randomly-mixed operation, timing it from
// start (the intended send time under open loop — coordinated
// omission stays visible in the histogram).
func (g *loadgen) oneOp(ctx context.Context, rng *rand.Rand, zipf *rand.Zipf, buf, batchBuf []byte, start time.Time) {
	var op telemetry.Op
	var err error
	var tr *server.Trace
	if g.o.traceEvery > 0 && g.traceTick.Add(1)%uint64(g.o.traceEvery) == 0 {
		tr = &server.Trace{}
		ctx = server.WithTrace(ctx, tr)
	}
	switch {
	case g.o.batchFrac > 0 && rng.Float64() < g.o.batchFrac:
		lines := make([]uint64, g.o.batchSize)
		for i := range lines {
			lines[i] = zipf.Uint64()
		}
		if rng.Float64() < g.o.readFrac {
			op = telemetry.OpRPCReadBatch
			err = g.c.ReadBatch(ctx, lines, batchBuf, nil)
		} else {
			op = telemetry.OpRPCWriteBatch
			rng.Read(batchBuf)
			err = g.c.WriteBatch(ctx, lines, batchBuf)
		}
	case rng.Float64() < g.o.readFrac:
		op = telemetry.OpRPCRead
		_, err = g.c.Read(ctx, zipf.Uint64(), buf)
	default:
		op = telemetry.OpRPCWrite
		rng.Read(buf)
		err = g.c.Write(ctx, zipf.Uint64(), buf)
	}
	g.reg.CountOp(op, 0)
	g.reg.ObserveOp(op, 0, time.Since(start))
	g.ops.Add(1)
	if tr != nil {
		g.tracesSent.Add(1)
		if tr.Captured {
			g.tracesCaptured.Add(1)
		}
	}
	if err == nil || ctx.Err() != nil {
		return
	}
	g.reg.CountOpError(op, 0)
	switch {
	case server.IsRetryable(err):
		g.reg.CountOp(telemetry.OpRPCRejected, 0)
		g.rejected.Add(1)
	case core.IsFailClosed(err):
		// Poisoned/attack lines are a correct degraded-mode answer,
		// not a generator failure.
		g.failClosed.Add(1)
	default:
		g.otherErrs.Add(1)
	}
}

func (g *loadgen) newWorkerState(id int) (*rand.Rand, *rand.Zipf, []byte, []byte) {
	rng := rand.New(rand.NewSource(g.o.seed + int64(id)*7919))
	zipf := rand.NewZipf(rng, g.o.zipfS, 1, g.lines-1)
	return rng, zipf, make([]byte, core.LineSize), make([]byte, g.o.batchSize*core.LineSize)
}

// runClosed: workers issue back-to-back requests; burst phases add
// (burstX-1)*workers extra workers for their duration.
func (g *loadgen) runClosed(ctx context.Context) {
	var wg sync.WaitGroup
	worker := func(id int, onlyWhileBursting bool) {
		defer wg.Done()
		rng, zipf, buf, batchBuf := g.newWorkerState(id)
		for ctx.Err() == nil {
			if onlyWhileBursting && !g.bursting.Load() {
				time.Sleep(time.Millisecond)
				continue
			}
			g.oneOp(ctx, rng, zipf, buf, batchBuf, time.Now())
		}
	}
	for i := 0; i < g.o.workers; i++ {
		wg.Add(1)
		go worker(i, false)
	}
	if g.o.burstEvery > 0 {
		for i := 0; i < (g.o.burstX-1)*g.o.workers; i++ {
			wg.Add(1)
			go worker(g.o.workers+i, true)
		}
	}
	wg.Wait()
}

// runOpen: a pacer emits intended send times at the target rate
// (multiplied during bursts); workers drain them. The timestamp rides
// the channel so queueing delay counts against latency.
func (g *loadgen) runOpen(ctx context.Context) {
	sends := make(chan time.Time, 4*g.o.workers)
	var wg sync.WaitGroup
	for i := 0; i < g.o.workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng, zipf, buf, batchBuf := g.newWorkerState(id)
			for start := range sends {
				g.oneOp(ctx, rng, zipf, buf, batchBuf, start)
			}
		}(i)
	}
	interval := time.Duration(float64(time.Second) / g.o.rate)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case now := <-tick.C:
			n := 1
			if g.bursting.Load() {
				n = g.o.burstX
			}
			for i := 0; i < n; i++ {
				select {
				case sends <- now:
				default:
					// Pool saturated: the refusal is the server's to
					// make, not ours — count the missed send as load
					// we failed to offer.
					g.otherErrs.Add(1)
				}
			}
		}
	}
	close(sends)
	wg.Wait()
}

// runBurstPhaser toggles g.bursting on the configured cadence and
// returns the number of burst phases completed.
func (g *loadgen) runBurstPhaser(ctx context.Context) int {
	if g.o.burstEvery <= 0 {
		<-ctx.Done()
		return 0
	}
	bursts := 0
	tick := time.NewTicker(g.o.burstEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return bursts
		case <-tick.C:
			g.bursting.Store(true)
			select {
			case <-ctx.Done():
				g.bursting.Store(false)
				return bursts
			case <-time.After(g.o.burstLen):
			}
			g.bursting.Store(false)
			bursts++
		}
	}
}

// runLoad is `synergy load`: it drives a running synergy server and
// reports service-level latency/throughput: a closed-loop (fixed worker
// count, back-to-back requests) or open-loop (target arrival rate,
// latency measured from intended send time so coordinated omission is
// visible) generator with zipfian key skew, a read/write mix, optional
// batch traffic, and periodic burst phases that multiply offered load.
//
// The JSON report (-json) carries per-op p50/p99/mean latency plus
// throughput and refusal (backpressure/shedding) counts. The gated
// measurement of the same path is bench/'s rpc_mixed workload.
//
//	synergy load -addr localhost:7070 -duration 10s
//	synergy load -addr localhost:7070 -workers 32 -read-frac 0.5 -zipf 1.2
//	synergy load -addr localhost:7070 -rate 5000 -burst-every 3s -burst-len 500ms -burst-x 4
//	synergy load -addr localhost:7070 -batch-frac 0.2 -batch-size 16 -json
//	synergy load -addr localhost:7070 -trace-every 100   # traceparent on every 100th op
func runLoad(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, err := parseLoad(args, stderr)
	if err != nil {
		return err
	}
	c := server.NewClient(o.addr, o.token)
	defer c.Close()
	info, err := c.Info(ctx)
	if err != nil {
		return fmt.Errorf("probe %s: %w", o.addr, err)
	}
	if info.Lines < 2 {
		return fmt.Errorf("tenant %q has %d lines; need at least 2", info.Tenant, info.Lines)
	}
	fmt.Fprintf(stderr, "synergy load: tenant %q, %d lines x %d ranks at %s\n",
		info.Tenant, info.Lines, info.Ranks, o.addr)

	g := &loadgen{o: o, c: c, reg: telemetry.New(), lines: info.Lines}
	rctx, cancel := context.WithTimeout(ctx, o.duration)
	defer cancel()

	burstDone := make(chan int, 1)
	go func() { burstDone <- g.runBurstPhaser(rctx) }()
	start := time.Now()
	if o.rate > 0 {
		g.runOpen(rctx)
	} else {
		g.runClosed(rctx)
	}
	elapsed := time.Since(start)
	bursts := <-burstDone

	mode := "closed"
	if o.rate > 0 {
		mode = "open"
	}
	rep := loadReport{
		Addr:        o.addr,
		Mode:        mode,
		Workers:     o.workers,
		RateTarget:  o.rate,
		DurationSec: elapsed.Seconds(),
		ReadFrac:    o.readFrac,
		BatchFrac:   o.batchFrac,
		BatchSize:   o.batchSize,
		ZipfS:       o.zipfS,
		Bursts:      bursts,
		Lines:       info.Lines,
		Ops:         g.ops.Load(),
		Throughput:  float64(g.ops.Load()) / elapsed.Seconds(),
		Rejected:    g.rejected.Load(),
		FailClosed:  g.failClosed.Load(),
		OtherErrors: g.otherErrs.Load(),
		PerOp:       map[string]opLatency{},
	}
	if sent := g.tracesSent.Load(); sent > 0 {
		rep.TracesSent = sent
		rep.TracesCaptured = g.tracesCaptured.Load()
		rep.TraceCaptureRate = float64(rep.TracesCaptured) / float64(sent)
	}
	snap := g.reg.Snapshot()
	for _, op := range []telemetry.Op{
		telemetry.OpRPCRead, telemetry.OpRPCWrite,
		telemetry.OpRPCReadBatch, telemetry.OpRPCWriteBatch,
	} {
		s := snap.Ops[op.String()]
		if s.Count == 0 {
			continue
		}
		rep.PerOp[op.String()] = opLatency{
			Count:  s.Count,
			Errors: s.Errors,
			P50us:  float64(s.Latency.Quantile(0.5)) / 1e3,
			P99us:  float64(s.Latency.Quantile(0.99)) / 1e3,
			Meanus: float64(s.Latency.Mean()) / 1e3,
		}
	}

	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(stdout, "synergy-load: %s loop, %d workers, %.1fs\n", mode, o.workers, rep.DurationSec)
	fmt.Fprintf(stdout, "  ops         %d (%.0f/s), %d bursts\n", rep.Ops, rep.Throughput, rep.Bursts)
	fmt.Fprintf(stdout, "  refused     %d backpressure/shedding, %d fail-closed, %d other errors\n",
		rep.Rejected, rep.FailClosed, rep.OtherErrors)
	if rep.TracesSent > 0 {
		fmt.Fprintf(stdout, "  traces      %d sent, %d captured (%.1f%% capture rate)\n",
			rep.TracesSent, rep.TracesCaptured, 100*rep.TraceCaptureRate)
	}
	for _, name := range []string{"rpc_read", "rpc_write", "rpc_read_batch", "rpc_write_batch"} {
		if s, ok := rep.PerOp[name]; ok {
			fmt.Fprintf(stdout, "  %-15s p50 %8.0fus  p99 %8.0fus  mean %8.0fus  (%d ops, %d errs)\n",
				name, s.P50us, s.P99us, s.Meanus, s.Count, s.Errors)
		}
	}
	return nil
}
