package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// The traced run: a replay of the head of the workload's stream on a
// fresh fixture, with one in-memory span around every call into
// core.Array or server.Client. It is separate from, and after, the
// untraced run that produces the end-to-end metrics; the difference
// between the two is the tracing overhead.
//
// The harness cannot see inside the engine from outside, so for one
// operation in traceSample it makes the child spans itself, right after
// the operation returns: it calls each lower layer's public function as
// many times as that layer's counters moved during the operation. Child
// spans therefore start after their parent ends; they are linked by
// parent id, and a layer's self time is its span minus its children's.
// Every sampled operation also gets an empty child span, timerSpan: what
// the two clock reads of a span cost where the spans are taken.

const (
	// traceSample: one operation in this many gets child spans.
	traceSample = 64
	// traceOpsCap bounds the spans kept in memory and written out.
	traceOpsCap = 200_000
	// timerSpan names the empty span.
	timerSpan = "harness.timer"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"` // shared by every span of one operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	kind   uint8
	slice  int
}

type tracer struct {
	t0      time.Time
	spans   []span
	scales  []float64 // clock scale of each finished slice
	ops     int
	calls   int // running call number fed to the leaf layers
	sampled [numKinds]int
}

func (tr *tracer) add(parent, op int, kind uint8, name string, start, end time.Time) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{id, parent, op, name, int64(start.Sub(tr.t0)), int64(end.Sub(tr.t0)), kind, len(tr.scales)})
	return id
}

// ns is a span's duration at the reference clock.
func (tr *tracer) ns(s *span) float64 { return float64(s.End-s.Start) * tr.scales[s.slice] }

// group records one child span around calls invocations of a leaf
// layer. The invocations are made twice and the second round is the
// span: the replay's own data (a scratch module's line, a key's tables)
// is touched sixty-four times less often than the engine's and would
// always be cold, which the engine's is not on a hot set. Misses the
// engine does suffer stay where they happen, in core's self time.
func (tr *tracer) group(parent int, name string, calls uint64, fn func(j int)) {
	if calls == 0 {
		return
	}
	p := tr.spans[parent-1]
	first := tr.calls
	for c := uint64(0); c < calls; c++ {
		fn(first + int(c))
	}
	start := time.Now()
	for c := uint64(0); c < calls; c++ {
		fn(tr.calls)
		tr.calls++
	}
	tr.add(parent, p.Op, p.kind, name, start, time.Now())
}

var (
	engineSpans = [numKinds]string{"core.Array.Read", "core.Array.Write", "core.Array.ReadBatchInto", "core.Array.WriteBatch"}
	clientSpans = [numKinds]string{"server.Client.Read", "server.Client.Write", "server.Client.ReadBatch", "server.Client.WriteBatch"}
)

// runTraced runs the current slice with a span per operation: kind by
// kind for the engine workloads, in the shuffled order for rpc_mixed,
// exactly as the untraced runners do.
func (f *fixture) runTraced(tr *tracer, lv *leaves, rec *sliceRecord) error {
	order, names := f.ops.order, clientSpans
	if f.cl == nil {
		order, names = slices.Clone(order), engineSpans
		slices.Sort(order)
	}
	var next [numKinds]int
	for k := range f.lat {
		f.lat[k] = f.lat[k][:0]
	}
	for _, kind := range order {
		i := next[kind]
		next[kind]++
		tr.ops++
		sampled := tr.ops%traceSample == 0
		var before counts
		if sampled {
			before = f.snap()
		}
		start := time.Now()
		err := f.exec(int(kind), i, f.cl != nil)
		end := time.Now()
		id := tr.add(0, tr.ops, kind, names[kind], start, end)
		f.lat[kind] = append(f.lat[kind], float64(end.Sub(start)))
		if sampled {
			var d counts
			d.addDelta(f.snap(), before)
			tr.sampled[kind]++
			if err := f.children(tr, lv, id, int(kind), i, d); err != nil {
				return err
			}
		}
		f.settle(int(kind), i, err)
	}
	for k, lat := range f.lat {
		if f.cl != nil {
			rec.perOp[k] = median(lat)
		} else {
			rec.perOp[k] = mean(lat)
		}
	}
	return nil
}

// children makes the child spans of one sampled operation.
func (f *fixture) children(tr *tracer, lv *leaves, parent, kind, i int, d counts) error {
	tr.group(parent, timerSpan, 1, func(int) {})
	if f.cl != nil {
		req, err := f.request(kind, i)
		if err != nil {
			return err
		}
		var w memWriter
		w.reset()
		start := time.Now()
		f.serve(&w, req)
		handler := tr.add(parent, tr.ops, uint8(kind), "server.Handler", start, time.Now())
		if err := f.absorb(kind, i, &w); err != nil {
			return err
		}
		start = time.Now()
		err = f.exec(kind, i, false)
		tr.add(handler, tr.ops, uint8(kind), engineSpans[kind], start, time.Now())
		return err
	}
	switch kind {
	case kindRead:
		copy(lv.line[:], f.readBuf[i*lineSize:])
	case kindWrite:
		copy(lv.line[:], f.ops.writeData[i*lineSize:])
	}
	if kind == kindRead || kind == kindWrite {
		tr.group(parent, "ctrenc.Engine.Pad", 1, lv.pad)
	} else {
		tr.group(parent, "ctrenc.Engine.PadBatch", 1, lv.padBatch)
	}
	tr.group(parent, "gmac.Mac.SumLine", d[cMACs]-d[cCacheMisses]-d[cWritebacks], lv.sumLine)
	tr.group(parent, "integrity.Node.Verify", d[cCacheMisses], lv.nodeVerify)
	tr.group(parent, "integrity.Node.Seal", d[cWritebacks], lv.nodeSeal)
	tr.group(parent, "dimm.Module.ReadLine", d[cDevReads], lv.readLine)
	tr.group(parent, "dimm.Module.WriteLine", d[cDevWrites], lv.writeLine)
	return nil
}

// opSummary is the layer-by-layer account of one kind of operation.
type opSummary struct {
	// SelfNs is each layer's self time per operation: its span minus
	// its children's, the clock's own cost taken off every span.
	SelfNs map[string]float64 `json:"self_ns"`
	// SumNs is the sum of the self times; UntracedNs the end-to-end
	// figure of the untraced run; UnattributedNs what the layers do not
	// account for (negative when tracing made the operation slower).
	SumNs          float64 `json:"sum_ns"`
	UntracedNs     float64 `json:"untraced_ns"`
	UnattributedNs float64 `json:"unattributed_ns"`
}

type traceSummary struct {
	File       string                `json:"file"`
	Slices     int                   `json:"slices"`
	Spans      int                   `json:"spans"`
	SampledOps int                   `json:"sampled_ops"`
	Ops        map[string]*opSummary `json:"ops"`
}

// tracedRun replays the first tenth of the workload's slices with
// spans, writes them out, and accounts for read_ns and write_ns layer
// by layer.
func tracedRun(w *workload, opt options, lv *leaves, e2e, ms metrics) (*traceSummary, error) {
	f, err := setup(w, opt.seed)
	if err != nil {
		return nil, err
	}
	defer f.close()
	n := min(w.slices/10, traceOpsCap/w.shape.ops())
	recs := make([]sliceRecord, n)
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, n*w.shape.ops()*5/4)}
	for s := range recs {
		f.st.next(f.ops)
		calibrated(&recs[s], func(rec *sliceRecord) { err = f.runTraced(tr, lv, rec) })
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		tr.scales = append(tr.scales, recs[s].scale)
	}
	if f.failed+f.corrupt > 0 {
		return nil, fmt.Errorf("%s: traced run: %d failed, %d corrupt operations", w.name, f.failed, f.corrupt)
	}

	sum := &traceSummary{
		File:   filepath.Join(outDir, "trace-"+w.name+".json"),
		Slices: n,
		Spans:  len(tr.spans),
		Ops:    map[string]*opSummary{},
	}
	for _, k := range []struct {
		kind int
		name string
	}{{kindRead, "read_ns"}, {kindWrite, "write_ns"}} {
		sum.SampledOps += tr.sampled[k.kind]
		root := quietDecile(perOp(recs, k.kind))
		if k.kind == kindRead {
			ms.set("harness.trace_overhead_ratio", root/e2e["read_ns"].Value)
		}
		// Children are known for the sampled operations only. A layer's
		// figure is the median of its spans, the clock's cost taken off,
		// times the share of operations that entered it; it moves from
		// the parent's self time to the child's.
		durs, parent := map[string][]float64{}, map[string]string{}
		for i := range tr.spans {
			if c := &tr.spans[i]; c.Parent != 0 && int(c.kind) == k.kind {
				durs[c.Name] = append(durs[c.Name], tr.ns(c))
				parent[c.Name] = tr.spans[c.Parent-1].Name
			}
		}
		timer := median(durs[timerSpan])
		delete(durs, timerSpan)
		op := &opSummary{SelfNs: map[string]float64{}, UntracedNs: e2e[k.name].Value}
		rootName := engineSpans[k.kind]
		if w.rpc {
			rootName = clientSpans[k.kind]
		}
		op.SelfNs[rootName] = root - timer
		for name, ds := range durs {
			d := max(median(ds)-timer, 0) * float64(len(ds)) / float64(tr.sampled[k.kind])
			op.SelfNs[name] += d
			op.SelfNs[parent[name]] -= d
		}
		for _, v := range op.SelfNs {
			op.SumNs += v
		}
		op.UnattributedNs = op.UntracedNs - op.SumNs
		sum.Ops[k.name] = op
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	out, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, opt.seed, tr.spans})
	if err != nil {
		return nil, err
	}
	return sum, os.WriteFile(sum.File, out, 0o644)
}
