package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"synergy/internal/core"
	"synergy/internal/dimm"
	"synergy/internal/server"
	"synergy/internal/telemetry"
)

const (
	lineSize = core.LineSize
	// failedChip is the chip engine_degraded kills on every rank.
	failedChip = 2
	// populateBatch is the WriteBatch size rpc_mixed populates with.
	populateBatch = 1024

	tenantName  = "bench"
	tenantToken = "bench-token"
)

// workload is one of the benchmark's four traffic mixes. Everything the
// program under test is configured with is in here; README.md says why
// each one exists.
type workload struct {
	name, why string
	cfg       core.Config
	hotSet    uint64 // lines operations are drawn from; 0 = every line
	degraded  bool   // a whole-chip permanent fault is live on every rank
	rpc       bool   // driven through server.Client over loopback
	shape     shape
	warm      int // warm-up slices, counted into setup_s
	slices    int // slices in the measured stream
}

// fixture is a built, populated and warmed-up instance of a workload:
// the program under test plus the harness's shadow model of what every
// line must read back as.
type fixture struct {
	w   *workload
	arr *core.Array    // the engine (rpc_mixed: the tenant's, read for counters only)
	srv *server.Server // rpc_mixed only
	cl  *server.Client // rpc_mixed only
	st  *stream
	ops *sliceOps

	shadow  []byte          // DataLines × 64 bytes
	unknown map[uint64]bool // lines whose last write failed: contents unspecified

	readBuf  []byte // results of a slice's single reads
	batchBuf []byte // results of a slice's read batches
	infos    []core.ReadInfo
	errs     []error // per-op errors of the segment being timed

	delta  [numKinds]counts    // counter deltas by the kind of op that caused them
	lat    [numKinds][]float64 // rpc_mixed: the current slice's request latencies
	reads  []float64           // rpc_mixed: every Read latency of the measured phase
	writes []float64           // rpc_mixed: every Write latency

	attempted, failed, rejected, corrupt int
}

// setup builds, populates and warms up one fixture. Its wall time is
// the workload's setup_s.
func setup(w *workload, seed uint64) (*fixture, error) {
	f := &fixture{w: w, unknown: map[uint64]bool{}}
	if w.rpc {
		srv, err := server.New(server.Config{
			Tenants:   []server.TenantConfig{{Name: tenantName, Token: tenantToken, Array: w.cfg}},
			Telemetry: telemetry.New(),
		})
		if err != nil {
			return nil, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		f.srv, f.arr = srv, srv.Tenant(tenantName)
		f.cl = server.NewClient(srv.Addr, tenantToken)
	} else {
		arr, err := core.NewArray(w.cfg)
		if err != nil {
			return nil, err
		}
		f.arr = arr
	}

	var eligible func(uint64) bool
	if w.degraded {
		eligible = f.outsideResidualWindow
	}
	sh := w.shape
	f.st = newStream(seed, w.name, sh, w.cfg.DataLines, w.hotSet, eligible)
	f.ops = f.st.newSlice()
	f.readBuf = make([]byte, sh.reads*lineSize)
	f.batchBuf = make([]byte, sh.readBatches*batchLines*lineSize)
	f.infos = make([]core.ReadInfo, batchLines)
	f.errs = make([]error, max(sh.reads, sh.writes, sh.readBatches, sh.writeBatches))

	f.shadow = make([]byte, w.cfg.DataLines*lineSize)
	f.st.payload(f.shadow)
	if err := f.populate(); err != nil {
		f.close()
		return nil, fmt.Errorf("%s: populate: %w", w.name, err)
	}
	if w.degraded {
		if err := f.killChip(); err != nil {
			return nil, err
		}
	}
	var scratch sliceRecord
	for i := 0; i < w.warm; i++ {
		f.runSlice(&scratch)
	}
	if w.degraded {
		// Pre-flight: the measured phase must run entirely in the
		// pre-emptive mode, so every rank has to have condemned the chip.
		for extra := 0; !f.condemned(); extra++ {
			if extra == 64 {
				f.close()
				return nil, fmt.Errorf("%s: chip %d not condemned on every rank after warm-up", w.name, failedChip)
			}
			f.runSlice(&scratch)
		}
	}
	return f, nil
}

func (f *fixture) populate() error {
	n := f.w.cfg.DataLines
	if f.cl == nil {
		for l := uint64(0); l < n; l++ {
			if err := f.arr.Write(l, f.shadow[l*lineSize:(l+1)*lineSize]); err != nil {
				return err
			}
		}
		return f.arr.Sync()
	}
	lines := make([]uint64, populateBatch)
	for base := uint64(0); base < n; base += populateBatch {
		k := min(populateBatch, n-base)
		for i := uint64(0); i < k; i++ {
			lines[i] = base + i
		}
		if err := f.cl.WriteBatch(context.Background(), lines[:k], f.shadow[base*lineSize:(base+k)*lineSize]); err != nil {
			return err
		}
	}
	return f.arr.Sync()
}

// killChip makes failedChip return garbage on every read of every rank.
func (f *fixture) killChip() error {
	var mask [dimm.SliceSize]byte
	for i := range mask {
		mask[i] = 0x5a
	}
	for r := 0; r < f.arr.Ranks(); r++ {
		m := f.arr.Rank(r)
		if _, err := m.InjectPermanent(failedChip, 0, m.Module().Lines()-1, mask); err != nil {
			return fmt.Errorf("%s: inject rank %d: %w", f.w.name, r, err)
		}
	}
	return nil
}

func (f *fixture) condemned() bool {
	for r := 0; r < f.arr.Ranks(); r++ {
		if f.arr.Rank(r).KnownBadChip() != failedChip {
			return false
		}
	}
	return true
}

// outsideResidualWindow rejects lines whose parity slot sits on the
// failed chip: a write to one degrades its parity group until
// RepairChip (DESIGN.md §10.4), after which clean reads in the group may
// fail closed. Excluding them is what makes zero failures the expected
// outcome of engine_degraded.
func (f *fixture) outsideResidualWindow(line uint64) bool {
	ranks := uint64(f.arr.Ranks())
	_, slot := f.arr.Rank(int(line % ranks)).Layout().ParityAddr(line / ranks)
	return slot != failedChip
}

// close stops whatever setup started and waits for it.
func (f *fixture) close() {
	if f.cl != nil {
		f.cl.Close()
	}
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = f.srv.Close(ctx) // best effort: the process is about to drop the fixture
		cancel()
	}
}

// exec performs operation i of one kind of the current slice, through
// the client when wire is set and on the array otherwise. The
// per-request and traced runners use it; the engine's measured loops in
// runSegments call the array directly.
func (f *fixture) exec(kind, i int, wire bool) error {
	o, ctx := f.ops, context.Background()
	var err error
	switch kind {
	case kindRead:
		dst := f.readBuf[i*lineSize : (i+1)*lineSize]
		if wire {
			_, err = f.cl.Read(ctx, o.reads[i], dst)
		} else {
			_, err = f.arr.Read(o.reads[i], dst)
		}
	case kindWrite:
		src := o.writeData[i*lineSize : (i+1)*lineSize]
		if wire {
			err = f.cl.Write(ctx, o.writes[i], src)
		} else {
			err = f.arr.Write(o.writes[i], src)
		}
	case kindReadBatch:
		lines := o.readBatch[i*batchLines : (i+1)*batchLines]
		dst := f.batchBuf[i*batchLines*lineSize : (i+1)*batchLines*lineSize]
		if wire {
			err = f.cl.ReadBatch(ctx, lines, dst, f.infos)
		} else {
			err = f.arr.ReadBatchInto(lines, dst, f.infos)
		}
	case kindWriteBatch:
		lines := o.writeBatch[i*batchLines : (i+1)*batchLines]
		src := o.batchData[i*batchLines*lineSize : (i+1)*batchLines*lineSize]
		if wire {
			err = f.cl.WriteBatch(ctx, lines, src)
		} else {
			err = f.arr.WriteBatch(lines, src)
		}
	}
	return err
}

// settle accounts for operation i of one kind after its clock has
// stopped: it counts the attempt, counts a failure or refusal, checks
// what a read returned against the shadow model, and applies a write to
// it. Nothing here runs inside a timed region.
func (f *fixture) settle(kind, i int, err error) {
	o := f.ops
	f.attempted++
	if err != nil {
		f.failed++
		if server.IsRetryable(err) {
			f.rejected++
		}
	}
	switch kind {
	case kindRead:
		if err == nil {
			f.check(o.reads[i], f.readBuf[i*lineSize:(i+1)*lineSize])
		}
	case kindWrite:
		f.apply(o.writes[i], o.writeData[i*lineSize:(i+1)*lineSize], err)
	case kindReadBatch:
		// A partially failed batch is one failed op; only its served
		// lines are checked.
		var be *core.BatchError
		if err != nil && !errors.As(err, &be) {
			return
		}
		for k, l := range o.readBatch[i*batchLines : (i+1)*batchLines] {
			if be != nil && lineFailed(be, k) {
				continue
			}
			at := (i*batchLines + k) * lineSize
			f.check(l, f.batchBuf[at:at+lineSize])
		}
	case kindWriteBatch:
		for k, l := range o.writeBatch[i*batchLines : (i+1)*batchLines] {
			at := (i*batchLines + k) * lineSize
			f.apply(l, o.batchData[at:at+lineSize], err)
		}
	}
}

func lineFailed(be *core.BatchError, index int) bool {
	for _, le := range be.Failed {
		if le.Index == index {
			return true
		}
	}
	return false
}

// check compares what a successful read returned with the shadow model.
// A difference is silent corruption — the one outcome the engine must
// never produce — and fails the whole run, not just the op.
func (f *fixture) check(line uint64, got []byte) {
	if len(f.unknown) > 0 && f.unknown[line] {
		return
	}
	if !bytes.Equal(got, f.shadow[line*lineSize:(line+1)*lineSize]) {
		f.corrupt++
	}
}

// apply records a write in the shadow model. A failed write leaves the
// line with old or new contents, so it is not compared again until a
// write to it succeeds.
func (f *fixture) apply(line uint64, data []byte, err error) {
	if err != nil {
		f.unknown[line] = true
		return
	}
	copy(f.shadow[line*lineSize:], data)
	if len(f.unknown) > 0 {
		delete(f.unknown, line)
	}
}
