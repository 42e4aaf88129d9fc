package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"synergy/internal/ctrenc"
	"synergy/internal/dimm"
	"synergy/internal/gmac"
	"synergy/internal/integrity"
	"synergy/internal/telemetry"
)

// Per-layer metrics. A layer is a module of the repository; nothing in
// here reaches inside one. Unit costs are measured by calling the
// layer's public functions on inputs drawn from the workload's stream,
// counts are deltas of public counters, and both go through the same
// slice/quiet-decile reduction as the end-to-end figures.

const (
	// layerSlices × layerCalls calls measure one leaf unit cost.
	layerSlices = 200
	layerCalls  = 2048
	// layerInputs is how many distinct stream-drawn inputs the leaf
	// measurements cycle through (a power of two).
	layerInputs = 1 << 15
	// sideSlices is how many slices the side measurements that need a
	// live fixture run: the telemetry on/off pair and the server's
	// handler and engine loops.
	sideSlices = 120
)

// sink keeps measured results alive so the calls are not optimised away.
var sink uint64

// unitCost times fn over layerSlices slices of n calls each — one clock
// pair per slice, between two runs of the reference chain — and returns
// the quiet-decile cost of one call in ns at the reference clock. fn
// receives the running call number.
func unitCost(n int, fn func(j int)) float64 {
	xs := make([]float64, layerSlices)
	j := 0
	for s := range xs {
		before := refNs()
		t := time.Now()
		for end := j + n; j < end; j++ {
			fn(j)
		}
		d := float64(time.Since(t))
		xs[s] = d / float64(n) * clockScale(before, refNs())
	}
	return quietDecile(xs)
}

// leaves holds one instance of every leaf layer, keyed and sized like
// the workload's, with inputs drawn from the workload's stream. The
// traced run replays child calls on the same instances.
type leaves struct {
	enc   *ctrenc.Engine
	mac   *gmac.Mac
	mod   *dimm.Module // scratch module the size of one rank's
	node  integrity.Node
	addrs []uint64 // module line addresses, one per stream-drawn line
	ctrs  []uint64
	line  [gmac.LineSize]byte
	buf56 [56]byte
	ecc   [dimm.SliceSize]byte
	pads  []byte
	fails int
}

func newLeaves(f *fixture) (*leaves, error) {
	key := make([]byte, 16)
	f.st.payload(key)
	enc, err := ctrenc.New(key)
	if err != nil {
		return nil, err
	}
	mac, err := gmac.New(key)
	if err != nil {
		return nil, err
	}
	mod, err := dimm.New(f.arr.Rank(0).Module().Lines())
	if err != nil {
		return nil, err
	}
	lv := &leaves{enc: enc, mac: mac, mod: mod, pads: make([]byte, batchLines*lineSize)}
	ranks := uint64(f.arr.Ranks())
	for i := 0; i < layerInputs; i++ {
		lv.addrs = append(lv.addrs, f.st.line()/ranks)
		lv.ctrs = append(lv.ctrs, f.st.rng.Uint64N(ctrenc.CounterMax))
	}
	f.st.payload(lv.line[:])
	f.st.payload(lv.buf56[:])
	for i := range lv.node.Counters {
		lv.node.Counters[i] = f.st.rng.Uint64() & integrity.CounterMask
	}
	return lv, nil
}

func (lv *leaves) at(j int) (addr, ctr uint64) {
	j &= layerInputs - 1
	return lv.addrs[j], lv.ctrs[j]
}

func (lv *leaves) pad(j int) {
	addr, ctr := lv.at(j)
	if lv.enc.Pad(lv.pads[:lineSize], addr, ctr) != nil {
		lv.fails++
	}
}

func (lv *leaves) padBatch(j int) {
	k := (j * batchLines) & (layerInputs - 1)
	if lv.enc.PadBatch(lv.pads, lv.addrs[k:k+batchLines], lv.ctrs[k:k+batchLines]) != nil {
		lv.fails++
	}
}

func (lv *leaves) sumLine(j int) {
	addr, ctr := lv.at(j)
	sink += lv.mac.SumLine(addr, ctr, &lv.line)
}

func (lv *leaves) sum56(j int) {
	addr, ctr := lv.at(j)
	sink += lv.mac.Sum56(addr, ctr, &lv.buf56)
}

func (lv *leaves) nodeVerify(j int) {
	addr, ctr := lv.at(j)
	if lv.node.Verify(lv.mac, addr, ctr) {
		sink++
	}
}

func (lv *leaves) nodeSeal(j int) {
	addr, ctr := lv.at(j)
	lv.node.Seal(lv.mac, addr, ctr)
}

func (lv *leaves) readLine(j int) {
	addr, _ := lv.at(j)
	l, err := lv.mod.ReadLine(addr)
	if err != nil {
		lv.fails++
	}
	sink += uint64(l.ECC[0])
}

func (lv *leaves) writeLine(j int) {
	addr, _ := lv.at(j)
	if lv.mod.WriteLine(addr, lv.line[:], lv.ecc[:]) != nil {
		lv.fails++
	}
}

// measure fills in the leaf layers' unit costs.
func (lv *leaves) measure(ms metrics) error {
	ms.set("harness.timer_ns", unitCost(layerCalls, func(int) { sink += uint64(time.Since(time.Now())) }))
	ms.set("ctrenc.pad_ns", unitCost(layerCalls, lv.pad))
	ms.set("ctrenc.pad_batch_line_ns", unitCost(layerCalls/batchLines, lv.padBatch)/batchLines)
	ms.set("gmac.sumline_ns", unitCost(layerCalls, lv.sumLine))
	ms.set("gmac.sum56_ns", unitCost(layerCalls, lv.sum56))
	ms.set("integrity.node_verify_ns", unitCost(layerCalls, lv.nodeVerify))
	ms.set("integrity.node_seal_ns", unitCost(layerCalls, lv.nodeSeal))
	ms.set("dimm.readline_ns", unitCost(layerCalls, lv.readLine))
	ms.set("dimm.writeline_ns", unitCost(layerCalls, lv.writeLine))
	if lv.fails > 0 {
		return fmt.Errorf("%d leaf-layer calls failed", lv.fails)
	}
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// childCost is the modelled time one operation of a kind spends in the
// layers below core: calls per op (from counter deltas) × unit cost.
// Every MAC evaluation that is not a node verify (one per metadata-cache
// miss) or a node seal (one per write-back) is a data-line SumLine.
func childCost(ms metrics, d counts, ops uint64) float64 {
	per := func(c int) float64 { return ratio(d[c], ops) }
	dataMACs := per(cMACs) - per(cCacheMisses) - per(cWritebacks)
	return ms["ctrenc.pad_ns"].Value +
		dataMACs*ms["gmac.sumline_ns"].Value +
		per(cCacheMisses)*ms["integrity.node_verify_ns"].Value +
		per(cWritebacks)*ms["integrity.node_seal_ns"].Value +
		per(cDevReads)*ms["dimm.readline_ns"].Value +
		per(cDevWrites)*ms["dimm.writeline_ns"].Value
}

// countMetrics fills in the count-based layer metrics from the counter
// deltas of a measured phase. Under one goroutine they repeat exactly
// for a fixed seed, which is what lets two commits be compared on them.
func countMetrics(ms metrics, w *workload, m *measured) {
	var all counts
	for k := range m.delta {
		all.addDelta(m.delta[k], counts{})
	}
	lines := uint64(len(m.recs) * w.shape.lines())
	rd, wr := m.delta[kindRead], m.delta[kindWrite]
	ms.set("dimm.reads_per_line", ratio(all[cDevReads], lines))
	ms.set("dimm.writes_per_line", ratio(all[cDevWrites], lines))
	ms.set("core.mac_per_read", ratio(rd[cMACs], rd[cReads]))
	ms.set("core.fast_read_share", ratio(rd[cFastReads], rd[cReads]))
	ms.set("core.escalations_per_read", ratio(rd[cEscalations], rd[cReads]))
	ms.set("core.preemptive_share", ratio(rd[cPreemptive], rd[cReads]))
	ms.set("core.reconstruct_attempts_per_read", ratio(rd[cReconstructs], rd[cReads]))
	ms.set("core.metacache_hit_rate", ratio(all[cCacheHits], all[cCacheHits]+all[cCacheMisses]))
	ms.set("core.meta_writebacks_per_write", ratio(wr[cWritebacks], wr[cWrites]))
}

// perLayer produces every per-layer metric of one workload and runs the
// traced replay. f is the fixture the measured phase m just ran on.
func perLayer(f *fixture, m *measured, e2e metrics, opt options) (metrics, any, error) {
	w, sh, ms := f.w, f.w.shape, metrics{}
	slices := len(m.recs)

	lv, err := newLeaves(f)
	if err != nil {
		return nil, nil, err
	}
	if err := lv.measure(ms); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}

	countMetrics(ms, w, m)

	readBatchLine := quietDecile(perOp(m.recs, kindReadBatch)) / batchLines
	writeBatchLine := quietDecile(perOp(m.recs, kindWriteBatch)) / batchLines
	pair := w
	if w.rpc {
		requests := float64(slices * sh.ops())
		ms.set("server.read_batch_line_ns", readBatchLine)
		ms.set("server.write_batch_line_ns", writeBatchLine)
		ms.set("server.allocs_per_req", float64(m.mallocs)/requests)
		ms.set("server.alloc_bytes_per_req", float64(m.allocated)/requests)
		ms.set("server.gc_pause_ns_per_req", float64(m.gcPause)/requests)
		v, n := p99(m.reads)
		ms.set("server.read_p99_ns", v)
		ms.set("server.read_p99_samples", float64(n))
		v, n = p99(m.writes)
		ms.set("server.write_p99_ns", v)
		ms.set("server.write_p99_samples", float64(n))
		ms.set("server.rejected_share", float64(f.rejected)/float64(f.attempted))
		if err := f.serverLayers(ms); err != nil {
			return nil, nil, err
		}
		ms.set("server.transport_read_ns", e2e["read_ns"].Value-ms["server.handler_read_ns"].Value)
		// The engine under the server is engine_hot's; that is the
		// fixture the telemetry pair runs on.
		pair = workloadByName("engine_hot")
	} else {
		ms.set("core.read_batch_line_ns", readBatchLine)
		ms.set("core.write_batch_line_ns", writeBatchLine)
		rd, wr := m.delta[kindRead], m.delta[kindWrite]
		ms.set("core.read_self_ns", e2e["read_ns"].Value-childCost(ms, rd, rd[cReads]))
		ms.set("core.write_self_ns", e2e["write_ns"].Value-childCost(ms, wr, wr[cWrites]))
		ms.set("core.allocs_per_line", float64(m.mallocs)/float64(slices*sh.lines()))
		ms.set("core.flush_ms", float64(m.flush)/1e6)
	}

	if err := telemetryOverhead(pair, opt.seed, ms); err != nil {
		return nil, nil, err
	}
	summary, err := tracedRun(w, opt, lv, e2e, ms)
	if err != nil {
		return nil, nil, err
	}
	ms.zeroRest()
	return ms, summary, nil
}

// telemetryOverhead replays one engine stream on two fresh fixtures that
// differ in exactly one variable — Config.Telemetry — alternating slice
// by slice so that both see the same host, and reports on − off.
func telemetryOverhead(w *workload, seed uint64, ms metrics) error {
	var fx [2]*fixture
	var recs [2][]sliceRecord
	for i := range fx {
		v := *w
		if i == 1 {
			v.cfg.Telemetry = telemetry.New()
		}
		f, err := setup(&v, seed)
		if err != nil {
			return err
		}
		defer f.close()
		fx[i], recs[i] = f, make([]sliceRecord, sideSlices)
	}
	for s := 0; s < sideSlices; s++ {
		fx[0].runSlice(&recs[0][s])
		fx[1].runSlice(&recs[1][s])
	}
	if n := fx[0].failed + fx[1].failed + fx[0].corrupt + fx[1].corrupt; n > 0 {
		return fmt.Errorf("%s: telemetry pair: %d failed or corrupt operations", w.name, n)
	}
	ms.set("telemetry.read_overhead_ns", quietDecile(perOp(recs[1], kindRead))-quietDecile(perOp(recs[0], kindRead)))
	ms.set("telemetry.write_overhead_ns", quietDecile(perOp(recs[1], kindWrite))-quietDecile(perOp(recs[0], kindWrite)))
	return nil
}

// The JSON bodies of the four data-plane endpoints: the service's wire
// contract, as a client outside the module would have to write it.
type (
	wireRead struct {
		Line uint64 `json:"line"`
	}
	wireWrite struct {
		Line uint64 `json:"line"`
		Data []byte `json:"data"`
	}
	wireReadBatch struct {
		Lines []uint64 `json:"lines"`
	}
	wireWriteBatch struct {
		Lines []uint64 `json:"lines"`
		Data  []byte   `json:"data"`
	}
	wireData struct {
		Data []byte `json:"data"`
	}
)

var wirePaths = [numKinds]string{"/v1/read", "/v1/write", "/v1/read_batch", "/v1/write_batch"}

// request builds the HTTP request the client would send for operation i
// of one kind of the current slice.
func (f *fixture) request(kind, i int) (*http.Request, error) {
	o := f.ops
	var body any
	switch kind {
	case kindRead:
		body = wireRead{o.reads[i]}
	case kindWrite:
		body = wireWrite{o.writes[i], o.writeData[i*lineSize : (i+1)*lineSize]}
	case kindReadBatch:
		body = wireReadBatch{o.readBatch[i*batchLines : (i+1)*batchLines]}
	case kindWriteBatch:
		body = wireWriteBatch{o.writeBatch[i*batchLines : (i+1)*batchLines],
			o.batchData[i*batchLines*lineSize : (i+1)*batchLines*lineSize]}
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, wirePaths[kind], bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+tenantToken)
	return req, nil
}

// memWriter is an http.ResponseWriter that keeps the response in memory.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *memWriter) WriteHeader(status int)      { w.status = status }

func (w *memWriter) reset() {
	w.header, w.status = http.Header{}, http.StatusOK
	w.body.Reset()
}

// serve runs operation i of one kind through the server's handler with
// no kernel and no client in the way; the caller times it.
func (f *fixture) serve(w *memWriter, req *http.Request) { f.srv.Handler().ServeHTTP(w, req) }

// absorb turns a handler response into the same state a client call
// leaves behind — the read buffers filled, an error for a non-2xx — so
// that settle can check it against the shadow model.
func (f *fixture) absorb(kind, i int, w *memWriter) error {
	if w.status != http.StatusOK {
		return fmt.Errorf("handler %s: HTTP %d: %s", wirePaths[kind], w.status, w.body.String())
	}
	var dst []byte
	switch kind {
	case kindRead:
		dst = f.readBuf[i*lineSize : (i+1)*lineSize]
	case kindReadBatch:
		dst = f.batchBuf[i*batchLines*lineSize : (i+1)*batchLines*lineSize]
	default:
		return nil
	}
	var resp wireData
	if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil {
		return err
	}
	if len(resp.Data) != len(dst) {
		return fmt.Errorf("handler %s: %d bytes of data, want %d", wirePaths[kind], len(resp.Data), len(dst))
	}
	copy(dst, resp.Data)
	return nil
}

// serverLayers measures the service's layers below the client on the
// rpc_mixed fixture, continuing its stream: the handler alone (the same
// request bodies through ServeHTTP into memory) and the tenant's engine
// alone.
func (f *fixture) serverLayers(ms metrics) error {
	sh := f.w.shape
	n := [numKinds]int{sh.reads, sh.writes, sh.readBatches, sh.writeBatches}
	reqs := make([]*http.Request, f.w.shape.ops())
	ws := make([]memWriter, len(reqs))
	handler := make([]sliceRecord, sideSlices)
	engine := make([]sliceRecord, sideSlices)
	for s := range handler {
		f.st.next(f.ops)
		for kind, at := 0, 0; kind < numKinds; kind, at = kind+1, at+n[kind] {
			for i := 0; i < n[kind]; i++ {
				req, err := f.request(kind, i)
				if err != nil {
					return err
				}
				reqs[at+i] = req
				ws[at+i].reset()
			}
		}
		calibrated(&handler[s], func(rec *sliceRecord) {
			for kind, at := 0, 0; kind < numKinds; kind, at = kind+1, at+n[kind] {
				t := time.Now()
				for i := 0; i < n[kind]; i++ {
					f.serve(&ws[at+i], reqs[at+i])
				}
				rec.perOp[kind] = float64(time.Since(t)) / float64(n[kind])
				for i := 0; i < n[kind]; i++ {
					f.settle(kind, i, f.absorb(kind, i, &ws[at+i]))
				}
			}
		})
		f.st.next(f.ops)
		calibrated(&engine[s], f.runSegments)
	}
	ms.set("server.handler_read_ns", quietDecile(perOp(handler, kindRead)))
	ms.set("server.handler_write_ns", quietDecile(perOp(handler, kindWrite)))
	ms.set("server.handler_read_batch_line_ns", quietDecile(perOp(handler, kindReadBatch))/batchLines)
	ms.set("server.handler_write_batch_line_ns", quietDecile(perOp(handler, kindWriteBatch))/batchLines)
	ms.set("server.engine_read_ns", quietDecile(perOp(engine, kindRead)))
	return nil
}
