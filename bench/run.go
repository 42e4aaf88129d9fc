package main

import (
	"context"
	"runtime"
	"time"
)

// Engine and device counters the harness reads from outside, through
// Array.Stats and Module.Reads/Writes.
const (
	cReads = iota
	cWrites
	cMACs
	cFastReads
	cEscalations
	cPreemptive
	cReconstructs
	cCacheHits
	cCacheMisses
	cWritebacks
	cAttacks
	cDevReads
	cDevWrites
	numCounters
)

type counts [numCounters]uint64

// snap reads every counter. It is called between timed segments only.
func (f *fixture) snap() counts {
	s := f.arr.Stats()
	c := counts{
		cReads: s.Reads, cWrites: s.Writes, cMACs: s.MACComputations,
		cFastReads: s.FastReads, cEscalations: s.ReadEscalations,
		cPreemptive: s.PreemptiveFixes, cReconstructs: s.ReconstructionAttempts,
		cCacheHits: s.MetaCacheHits, cCacheMisses: s.MetaCacheMisses,
		cWritebacks: s.MetaWritebacks, cAttacks: s.AttacksDeclared,
	}
	for r := 0; r < f.arr.Ranks(); r++ {
		mod := f.arr.Rank(r).Module()
		c[cDevReads] += mod.Reads()
		c[cDevWrites] += mod.Writes()
	}
	return c
}

func (c *counts) addDelta(after, before counts) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// sliceRecord is what one slice contributes to the reducer.
type sliceRecord struct {
	// perOp is the slice's figure for one operation of each kind, in raw
	// ns: segment time / operations for the engine workloads, the median
	// request latency for rpc_mixed.
	perOp [numKinds]float64
	// total is the time spent inside timed regions, in raw ns.
	total float64
	// scale converts the slice's raw times to the reference clock.
	scale float64
}

// calibrated runs one slice's timed work between two runs of the
// reference chain and records the slice's clock scale.
func calibrated(rec *sliceRecord, run func(*sliceRecord)) {
	before := refNs()
	run(rec)
	rec.scale = clockScale(before, refNs())
}

// runSlice generates the stream's next slice and runs it.
func (f *fixture) runSlice(rec *sliceRecord) {
	f.st.next(f.ops)
	if f.cl == nil {
		calibrated(rec, f.runSegments)
	} else {
		calibrated(rec, f.runRequests)
		for _, d := range f.lat[kindRead] {
			f.reads = append(f.reads, d*rec.scale)
		}
		for _, d := range f.lat[kindWrite] {
			f.writes = append(f.writes, d*rec.scale)
		}
	}
}

// runSegments runs the current slice against the array as four
// homogeneous segments, one clock pair each. The loops hold nothing but
// the call under test and the store of a (never expected) error.
func (f *fixture) runSegments(rec *sliceRecord) {
	o, a, sh := f.ops, f.arr, f.w.shape
	var c [numKinds + 1]counts
	var ns [numKinds]time.Duration

	c[0] = f.snap()
	t := time.Now()
	for i, l := range o.reads {
		if _, err := a.Read(l, f.readBuf[i*lineSize:(i+1)*lineSize]); err != nil {
			f.errs[i] = err
		}
	}
	ns[kindRead] = time.Since(t)
	c[1] = f.snap()
	f.settleSegment(kindRead, sh.reads)

	t = time.Now()
	for i, l := range o.writes {
		if err := a.Write(l, o.writeData[i*lineSize:(i+1)*lineSize]); err != nil {
			f.errs[i] = err
		}
	}
	ns[kindWrite] = time.Since(t)
	c[2] = f.snap()
	f.settleSegment(kindWrite, sh.writes)

	const span = batchLines * lineSize
	t = time.Now()
	for i := 0; i < sh.readBatches; i++ {
		if err := a.ReadBatchInto(o.readBatch[i*batchLines:(i+1)*batchLines], f.batchBuf[i*span:(i+1)*span], f.infos); err != nil {
			f.errs[i] = err
		}
	}
	ns[kindReadBatch] = time.Since(t)
	c[3] = f.snap()
	f.settleSegment(kindReadBatch, sh.readBatches)

	t = time.Now()
	for i := 0; i < sh.writeBatches; i++ {
		if err := a.WriteBatch(o.writeBatch[i*batchLines:(i+1)*batchLines], o.batchData[i*span:(i+1)*span]); err != nil {
			f.errs[i] = err
		}
	}
	ns[kindWriteBatch] = time.Since(t)
	c[4] = f.snap()
	f.settleSegment(kindWriteBatch, sh.writeBatches)

	rec.total = 0
	for k, n := range [numKinds]int{sh.reads, sh.writes, sh.readBatches, sh.writeBatches} {
		f.delta[k].addDelta(c[k+1], c[k])
		rec.perOp[k] = float64(ns[k]) / float64(n)
		rec.total += float64(ns[k])
	}
}

func (f *fixture) settleSegment(kind, n int) {
	for i := 0; i < n; i++ {
		f.settle(kind, i, f.errs[i])
		f.errs[i] = nil
	}
}

// runRequests runs the current slice through the client as one closed
// loop of individually timed requests, in the slice's shuffled order.
func (f *fixture) runRequests(rec *sliceRecord) {
	var next [numKinds]int
	for k := range f.lat {
		f.lat[k] = f.lat[k][:0]
	}
	for _, kind := range f.ops.order {
		i := next[kind]
		next[kind]++
		before := f.snap()
		t := time.Now()
		err := f.exec(int(kind), i, true)
		d := float64(time.Since(t))
		f.delta[kind].addDelta(f.snap(), before)
		f.settle(int(kind), i, err)
		f.lat[kind] = append(f.lat[kind], d)
	}
	rec.total = 0
	for k, lat := range f.lat {
		rec.perOp[k] = median(lat)
		for _, d := range lat {
			rec.total += d
		}
	}
}

// measured is the raw outcome of one measured phase.
type measured struct {
	recs      []sliceRecord
	delta     [numKinds]counts // counter deltas by the kind of operation that caused them
	reads     []float64        // rpc_mixed: every Read latency of the run at the reference clock, for the tail
	writes    []float64        // rpc_mixed: every Write latency
	wall      time.Duration
	mallocs   uint64
	allocated uint64
	gcPause   uint64
	flush     time.Duration
}

// measure runs the workload's stream of slices: a fixed number of
// operations, never a fixed duration, so that two commits do identical
// work.
func (f *fixture) measure(slices int) (*measured, error) {
	m := &measured{recs: make([]sliceRecord, slices)}
	f.delta = [numKinds]counts{}
	if f.cl != nil {
		sh := f.w.shape
		f.reads = make([]float64, 0, slices*sh.reads)
		f.writes = make([]float64, 0, slices*sh.writes)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := range m.recs {
		f.runSlice(&m.recs[i])
	}
	m.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	m.mallocs = after.Mallocs - before.Mallocs
	m.allocated = after.TotalAlloc - before.TotalAlloc
	m.gcPause = after.PauseTotalNs - before.PauseTotalNs
	m.delta, m.reads, m.writes = f.delta, f.reads, f.writes

	t := time.Now()
	err := f.arr.Flush(context.Background())
	m.flush = time.Since(t)
	return m, err
}

// column extracts one per-slice series from the records.
func column(recs []sliceRecord, get func(*sliceRecord) float64) []float64 {
	xs := make([]float64, len(recs))
	for i := range recs {
		xs[i] = get(&recs[i])
	}
	return xs
}

// perOp is the per-slice time of one operation of a kind, at the
// reference clock.
func perOp(recs []sliceRecord, kind int) []float64 {
	return column(recs, func(r *sliceRecord) float64 { return r.perOp[kind] * r.scale })
}

// rawPerOp is the same as the host's clock ran it.
func rawPerOp(recs []sliceRecord, kind int) []float64 {
	return column(recs, func(r *sliceRecord) float64 { return r.perOp[kind] })
}

// totals is the per-slice time inside timed regions, at the reference
// clock.
func totals(recs []sliceRecord) []float64 {
	return column(recs, func(r *sliceRecord) float64 { return r.total * r.scale })
}
