package gmac

import "encoding/binary"

// Hasher computes the same tag as Mac.Sum incrementally, so callers can
// MAC streamed or scattered content (e.g. serialized metadata) without
// assembling a contiguous buffer. It implements hash.Hash64.
//
// A Hasher is bound to one (address, counter) pair at creation; Reset
// restarts the data stream under the same binding. Not safe for
// concurrent use.
type Hasher struct {
	m       *Mac
	addr    uint64
	counter uint64

	acc   uint64
	buf   [8]byte
	nbuf  int
	total int
}

// NewHasher starts an incremental tag computation bound to (addr,
// counter).
func (m *Mac) NewHasher(addr, counter uint64) *Hasher {
	return &Hasher{m: m, addr: addr, counter: counter}
}

// Write absorbs p into the polynomial. It never fails.
func (h *Hasher) Write(p []byte) (int, error) {
	n := len(p)
	h.total += n
	if h.nbuf > 0 {
		k := copy(h.buf[h.nbuf:], p)
		h.nbuf += k
		p = p[k:]
		if h.nbuf == 8 {
			h.acc = h.m.tab.mul(h.acc ^ binary.BigEndian.Uint64(h.buf[:]))
			h.nbuf = 0
		}
	}
	for len(p) >= 8 {
		h.acc = h.m.tab.mul(h.acc ^ binary.BigEndian.Uint64(p[:8]))
		p = p[8:]
	}
	if len(p) > 0 {
		h.nbuf = copy(h.buf[:], p)
	}
	return n, nil
}

// Sum64 returns the tag for everything written so far. It does not
// consume the state: more data may be written afterwards (the returned
// tag then becomes stale).
func (h *Hasher) Sum64() uint64 {
	acc := h.acc
	if h.nbuf > 0 {
		var last [8]byte
		copy(last[:], h.buf[:h.nbuf])
		acc = h.m.tab.mul(acc ^ binary.BigEndian.Uint64(last[:]))
	}
	acc = h.m.tab.mul(acc ^ uint64(h.total)<<3 ^ uint64(lenMixin))
	return acc ^ h.m.key.Block(h.addr, h.counter)
}

// Sum appends the big-endian tag to b (hash.Hash).
func (h *Hasher) Sum(b []byte) []byte {
	var out [TagSize]byte
	binary.BigEndian.PutUint64(out[:], h.Sum64())
	return append(b, out[:]...)
}

// Reset restarts the stream under the same (addr, counter) binding.
func (h *Hasher) Reset() {
	h.acc = 0
	h.nbuf = 0
	h.total = 0
}

// Size returns the tag size in bytes (hash.Hash).
func (h *Hasher) Size() int { return TagSize }

// BlockSize returns the absorption block size in bytes (hash.Hash).
func (h *Hasher) BlockSize() int { return 8 }
