package gmac

import (
	"encoding/binary"
	"hash"
	"math/rand"
	"testing"
	"testing/quick"
)

var _ hash.Hash64 = (*Hasher)(nil)

func TestHasherMatchesSum(t *testing.T) {
	m := testKey(t)
	f := func(seed int64, addr, ctr uint64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n)%300)
		rng.Read(data)
		want := m.Sum(addr, ctr, data)
		h := m.NewHasher(addr, ctr)
		// Write in random-sized chunks.
		rest := data
		for len(rest) > 0 {
			k := 1 + rng.Intn(len(rest))
			h.Write(rest[:k])
			rest = rest[k:]
		}
		return h.Sum64() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasherEmpty(t *testing.T) {
	m := testKey(t)
	h := m.NewHasher(9, 4)
	if h.Sum64() != m.Sum(9, 4, nil) {
		t.Fatal("empty hasher disagrees with Sum(nil)")
	}
}

func TestHasherSumIsIdempotent(t *testing.T) {
	m := testKey(t)
	h := m.NewHasher(1, 2)
	h.Write([]byte("partial-word tail"))
	a := h.Sum64()
	b := h.Sum64()
	if a != b {
		t.Fatal("Sum64 mutated state")
	}
	// Continuing after a Sum64 must match a fresh computation.
	h.Write([]byte("!more"))
	want := m.Sum(1, 2, []byte("partial-word tail!more"))
	if h.Sum64() != want {
		t.Fatal("continuation after Sum64 diverged")
	}
}

func TestHasherReset(t *testing.T) {
	m := testKey(t)
	h := m.NewHasher(5, 6)
	h.Write([]byte("garbage to be discarded"))
	h.Reset()
	h.Write([]byte("fresh"))
	if h.Sum64() != m.Sum(5, 6, []byte("fresh")) {
		t.Fatal("Reset did not restart the stream")
	}
}

func TestHasherSumAppends(t *testing.T) {
	m := testKey(t)
	h := m.NewHasher(7, 8)
	h.Write([]byte("abc"))
	out := h.Sum([]byte{0xEE})
	if len(out) != 1+TagSize || out[0] != 0xEE {
		t.Fatalf("Sum append wrong: %x", out)
	}
	if binary.BigEndian.Uint64(out[1:]) != m.Sum(7, 8, []byte("abc")) {
		t.Fatal("appended tag wrong")
	}
}

func TestHasherInterface(t *testing.T) {
	m := testKey(t)
	h := m.NewHasher(0, 0)
	if h.Size() != TagSize || h.BlockSize() != 8 {
		t.Fatalf("Size/BlockSize = %d/%d", h.Size(), h.BlockSize())
	}
}
