package gmac

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// refTag evaluates a tag from the definition alone: H = AES_K(0^16)
// truncated to 64 bits, a bit-serial gfMul Horner evaluation over the
// zero-padded 8-byte words and the length block, XOR the truncated
// AES_K(addr || counter).
func refTag(t testing.TB, key []byte, addr, counter uint64, data []byte) uint64 {
	t.Helper()
	b, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var blk [16]byte
	b.Encrypt(blk[:], blk[:])
	h := binary.BigEndian.Uint64(blk[:8])
	if h == 0 {
		h = 1
	}
	var acc uint64
	for off := 0; off < len(data); off += 8 {
		var w [8]byte
		copy(w[:], data[off:])
		acc = gfMul(acc^binary.BigEndian.Uint64(w[:]), h)
	}
	acc = gfMul(acc^uint64(len(data))<<3^lenMixin, h)
	binary.BigEndian.PutUint64(blk[:8], addr)
	binary.BigEndian.PutUint64(blk[8:], counter)
	b.Encrypt(blk[:], blk[:])
	return acc ^ binary.BigEndian.Uint64(blk[:8])
}

var testKeyBytes = bytes.Repeat([]byte{0x42}, KeySize)

// TestTagKnownAnswers pins tags produced by the MAC that sealed every
// stored line, tree node and SYNSNAP1 snapshot so far (key 0x42
// repeated, testKey): a restaging that changes one of them makes all of
// that state unverifiable.
func TestTagKnownAnswers(t *testing.T) {
	m := testKey(t)
	var line, zero [LineSize]byte
	for i := range line {
		line[i] = byte(i)
	}
	var node [56]byte
	for i := range node {
		node[i] = 0xff - byte(i)
	}
	for _, v := range []struct {
		name      string
		got, want uint64
		addr, ctr uint64
		data      []byte
	}{
		{"SumLine", m.SumLine(0x1000, 7, &line), 0xa6e8237367994a04, 0x1000, 7, line[:]},
		{"SumLine zero", m.SumLine(0, 0, &zero), 0x274fa4c167760d5d, 0, 0, zero[:]},
		{"Sum56", m.Sum56(0x40000, 1<<60, &node), 0xbdb435784b95b28b, 0x40000, 1 << 60, node[:]},
		{"Sum", m.Sum(5, 9, []byte("hello, secure memory")), 0x6c477ce9b14a6676, 5, 9, []byte("hello, secure memory")},
		{"Sum empty", m.Sum(0, 0, nil), 0xaf98d055d3b79727, 0, 0, nil},
		{"Sum 13B", m.Sum(0xffffffffffffffc0, 0xffffffffffffffff, line[:13]), 0x6cdeef7c72982a2b, 0xffffffffffffffc0, 0xffffffffffffffff, line[:13]},
	} {
		if v.got != v.want {
			t.Errorf("%s = %#x, want %#x", v.name, v.got, v.want)
		}
		if ref := refTag(t, testKeyBytes, v.addr, v.ctr, v.data); ref != v.want {
			t.Errorf("%s: reference tag %#x, want %#x", v.name, ref, v.want)
		}
	}
}

// TestTagsMatchReference checks every entry point against the
// definition on random inputs and keys.
func TestTagsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	key := make([]byte, KeySize)
	for trial := 0; trial < 50; trial++ {
		rng.Read(key)
		m, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		addr, ctr := rng.Uint64(), rng.Uint64()
		var line [LineSize]byte
		rng.Read(line[:])
		if got, want := m.SumLine(addr, ctr, &line), refTag(t, key, addr, ctr, line[:]); got != want {
			t.Fatalf("SumLine = %#x, reference %#x", got, want)
		}
		var node [56]byte
		rng.Read(node[:])
		if got, want := m.Sum56(addr, ctr, &node), refTag(t, key, addr, ctr, node[:]); got != want {
			t.Fatalf("Sum56 = %#x, reference %#x", got, want)
		}
		data := line[:rng.Intn(LineSize+1)]
		want := refTag(t, key, addr, ctr, data)
		if got := m.Sum(addr, ctr, data); got != want {
			t.Fatalf("Sum(len %d) = %#x, reference %#x", len(data), got, want)
		}
		h := m.NewHasher(addr, ctr)
		h.Write(data)
		if got := h.Sum64(); got != want {
			t.Fatalf("Hasher(len %d) = %#x, reference %#x", len(data), got, want)
		}
	}
}

// One Mac serves every rank of an Array; concurrent use must give the
// serial results.
func TestSharedMacConcurrent(t *testing.T) {
	m := testKey(t)
	const workers, lines = 8, 64
	want := make([]uint64, lines)
	buf := func(k int) *[LineSize]byte {
		var l [LineSize]byte
		l[0], l[63] = byte(k), byte(k*3)
		return &l
	}
	for k := range want {
		want[k] = m.SumLine(uint64(k)<<6, uint64(k), buf(k))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				k := (w*7 + r) % lines
				l := buf(k)
				got := m.SumLine(uint64(k)<<6, uint64(k), l)
				if r%2 == 1 {
					got = m.Sum(uint64(k)<<6, uint64(k), l[:])
				}
				if got != want[k] {
					t.Errorf("worker %d: line %d tag %#x, serial %#x", w, k, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
