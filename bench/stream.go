package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"slices"

	"synergy/internal/core"
)

// batchLines is the size of every batch operation in every workload.
const batchLines = 32

// shape is the fixed composition of one slice: how many single reads,
// single writes, read batches and write batches it holds. Engine
// workloads run the four kinds as four separately timed segments;
// rpc_mixed shuffles them into one request sequence.
type shape struct {
	reads, writes, readBatches, writeBatches int
}

// ops is the number of operations (calls) in one slice.
func (s shape) ops() int { return s.reads + s.writes + s.readBatches + s.writeBatches }

// lines is the number of 64-byte lines one slice moves.
func (s shape) lines() int {
	return s.reads + s.writes + (s.readBatches+s.writeBatches)*batchLines
}

// Request kinds, in the order the shape lists them.
const (
	kindRead = iota
	kindWrite
	kindReadBatch
	kindWriteBatch
	numKinds
)

// sliceOps is one slice of generated inputs. The buffers are allocated
// once and refilled by stream.next, so generating a slice allocates
// nothing (the measured phase watches the allocation counter).
type sliceOps struct {
	reads      []uint64 // one line per single read
	writes     []uint64 // one line per single write
	writeData  []byte   // payloads of the single writes, in order
	readBatch  []uint64 // readBatches × batchLines lines, distinct within a batch
	writeBatch []uint64 // writeBatches × batchLines lines, distinct within a batch
	batchData  []byte   // payloads of the batch writes, in order
	order      []uint8  // rpc_mixed: the shuffled sequence of request kinds
}

// stream generates a workload's operations from the seed, one slice at
// a time. The program under test only ever sees the generated lines and
// payloads; the seed stays in the harness.
type stream struct {
	rng   *rand.Rand
	shape shape
	set   []uint64 // the lines operations are drawn from, uniformly; nil = all of [0, lines)
	lines uint64
	sum   uint64 // running FNV-1a over everything generated
}

// newStream seeds a generator for one workload. eligible filters the
// lines the hot set may contain (engine_degraded excludes the residual
// window); nil admits every line.
func newStream(seed uint64, name string, sh shape, dataLines, hotSet uint64, eligible func(uint64) bool) *stream {
	h := fnv.New64a()
	h.Write([]byte(name))
	s := &stream{
		rng:   rand.New(rand.NewPCG(seed, h.Sum64())),
		shape: sh,
		lines: dataLines,
		sum:   14695981039346656037,
	}
	if hotSet > 0 {
		seen := make(map[uint64]bool, hotSet)
		for uint64(len(s.set)) < hotSet {
			l := s.rng.Uint64N(dataLines)
			if seen[l] || (eligible != nil && !eligible(l)) {
				continue
			}
			seen[l] = true
			s.set = append(s.set, l)
		}
	}
	return s
}

func (s *stream) newSlice() *sliceOps {
	sh := s.shape
	o := &sliceOps{
		reads:      make([]uint64, sh.reads),
		writes:     make([]uint64, sh.writes),
		writeData:  make([]byte, sh.writes*core.LineSize),
		readBatch:  make([]uint64, sh.readBatches*batchLines),
		writeBatch: make([]uint64, sh.writeBatches*batchLines),
		batchData:  make([]byte, sh.writeBatches*batchLines*core.LineSize),
		order:      make([]uint8, 0, sh.ops()),
	}
	for k, n := range [numKinds]int{sh.reads, sh.writes, sh.readBatches, sh.writeBatches} {
		for i := 0; i < n; i++ {
			o.order = append(o.order, uint8(k))
		}
	}
	return o
}

func (s *stream) line() uint64 {
	var l uint64
	if s.set != nil {
		l = s.set[s.rng.IntN(len(s.set))]
	} else {
		l = s.rng.Uint64N(s.lines)
	}
	s.mix(l)
	return l
}

// batch fills dst (a multiple of batchLines long) with lines that are
// distinct within each batch: WriteBatch gives duplicates no defined
// order, and the shadow model needs one.
func (s *stream) batch(dst []uint64) {
	for b := 0; b < len(dst); b += batchLines {
		cur := dst[b : b+batchLines]
		for i := 0; i < batchLines; {
			if l := s.line(); !slices.Contains(cur[:i], l) {
				cur[i] = l
				i++
			}
		}
	}
}

func (s *stream) payload(dst []byte) {
	for i := 0; i < len(dst); i += 8 {
		w := s.rng.Uint64()
		binary.LittleEndian.PutUint64(dst[i:], w)
		s.mix(w)
	}
}

// mix folds one generated word into the stream hash (FNV-1a's step on
// whole words: the hash only has to tell two streams apart).
func (s *stream) mix(w uint64) { s.sum = (s.sum ^ w) * 1099511628211 }

// next refills o with the stream's next slice.
func (s *stream) next(o *sliceOps) {
	for i := range o.reads {
		o.reads[i] = s.line()
	}
	for i := range o.writes {
		o.writes[i] = s.line()
	}
	s.payload(o.writeData)
	s.batch(o.readBatch)
	s.batch(o.writeBatch)
	s.payload(o.batchData)
	s.rng.Shuffle(len(o.order), func(i, j int) { o.order[i], o.order[j] = o.order[j], o.order[i] })
}
