package gmac

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func testKey(t testing.TB) *Mac {
	t.Helper()
	m, err := New(bytes.Repeat([]byte{0x42}, KeySize))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewRejectsBadKey(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 32} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New accepted %d-byte key", n)
		}
	}
}

func TestNewAcceptsGoodKey(t *testing.T) {
	if _, err := New(make([]byte, KeySize)); err != nil {
		t.Fatalf("New rejected valid key: %v", err)
	}
}

func TestSumDeterministic(t *testing.T) {
	m := testKey(t)
	data := []byte("sixty-four bytes of cacheline data .............................")[:64]
	a := m.Sum(0x1000, 7, data)
	b := m.Sum(0x1000, 7, data)
	if a != b {
		t.Fatalf("Sum not deterministic: %x vs %x", a, b)
	}
}

func TestSumDependsOnAddress(t *testing.T) {
	m := testKey(t)
	data := make([]byte, 64)
	if m.Sum(0x1000, 1, data) == m.Sum(0x1040, 1, data) {
		t.Fatal("tags for different addresses collide")
	}
}

func TestSumDependsOnCounter(t *testing.T) {
	m := testKey(t)
	data := make([]byte, 64)
	if m.Sum(0x1000, 1, data) == m.Sum(0x1000, 2, data) {
		t.Fatal("tags for different counters collide")
	}
}

func TestSumDependsOnKey(t *testing.T) {
	m1, _ := New(bytes.Repeat([]byte{1}, KeySize))
	m2, _ := New(bytes.Repeat([]byte{2}, KeySize))
	data := make([]byte, 64)
	if m1.Sum(0, 0, data) == m2.Sum(0, 0, data) {
		t.Fatal("tags under different keys collide")
	}
}

func TestVerifyRoundTrip(t *testing.T) {
	m := testKey(t)
	data := []byte("hello, secure memory")
	tag := m.Sum(5, 9, data)
	if !m.Verify(5, 9, data, tag) {
		t.Fatal("Verify rejected a genuine tag")
	}
	if m.Verify(5, 9, data, tag^1) {
		t.Fatal("Verify accepted a flipped tag")
	}
}

// Every single-bit flip in a 64-byte line must change the tag: this is the
// error-detection property Synergy re-uses (paper §III).
func TestSingleBitFlipDetected(t *testing.T) {
	m := testKey(t)
	data := make([]byte, 64)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	orig := m.Sum(0x40, 11, data)
	for byteIdx := range data {
		for bit := 0; bit < 8; bit++ {
			data[byteIdx] ^= 1 << bit
			if m.Sum(0x40, 11, data) == orig {
				t.Fatalf("bit flip at byte %d bit %d undetected", byteIdx, bit)
			}
			data[byteIdx] ^= 1 << bit
		}
	}
}

// Whole-chip corruption (any change to one aligned 8-byte slice) must be
// detected — the chip-failure case of Fig. 5.
func TestChipSliceCorruptionDetected(t *testing.T) {
	m := testKey(t)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 64)
		rng.Read(data)
		orig := m.Sum(0x80, 3, data)
		chip := rng.Intn(8)
		slice := data[chip*8 : chip*8+8]
		old := make([]byte, 8)
		copy(old, slice)
		rng.Read(slice)
		if bytes.Equal(old, slice) {
			continue
		}
		if m.Sum(0x80, 3, data) == orig {
			t.Fatalf("trial %d: chip %d corruption undetected", trial, chip)
		}
	}
}

func TestDifferentLengthsDiffer(t *testing.T) {
	m := testKey(t)
	// A message and the same message zero-extended must not collide.
	a := []byte{1, 2, 3}
	b := []byte{1, 2, 3, 0}
	if m.Sum(0, 0, a) == m.Sum(0, 0, b) {
		t.Fatal("zero-extension collision")
	}
	if m.Sum(0, 0, nil) == m.Sum(0, 0, []byte{0}) {
		t.Fatal("empty vs single-zero collision")
	}
}

// Regression test for the length-fold bug: the fold must cover the true
// total length, not total mod 8, so zero-extension by whole words must
// change the tag too (the empty message used to collide with 8, 16, 24…
// zero bytes).
func TestWholeWordZeroExtensionDiffers(t *testing.T) {
	m := testKey(t)
	seen := map[uint64]int{m.Sum(0, 0, nil): 0}
	for n := 8; n <= 64; n += 8 {
		tag := m.Sum(0, 0, make([]byte, n))
		if prev, dup := seen[tag]; dup {
			t.Fatalf("%d zero bytes collide with %d zero bytes", n, prev)
		}
		seen[tag] = n
	}
}

func TestSumLineMatchesSum(t *testing.T) {
	m := testKey(t)
	f := func(seed int64, addr, ctr uint64) bool {
		var line [LineSize]byte
		rand.New(rand.NewSource(seed)).Read(line[:])
		return m.SumLine(addr, ctr, &line) == m.Sum(addr, ctr, line[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSum56MatchesSum(t *testing.T) {
	m := testKey(t)
	f := func(seed int64, addr, ctr uint64) bool {
		var buf [56]byte
		rand.New(rand.NewSource(seed)).Read(buf[:])
		return m.Sum56(addr, ctr, &buf) == m.Sum(addr, ctr, buf[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGFMulTableVsReference pins the table-driven multiply-by-H against
// the shift-and-add reference that built it.
func TestGFMulTableVsReference(t *testing.T) {
	for _, h := range []uint64{1, 2, 0x1b, 1 << 63, 0xdeadbeefcafef00d} {
		tab := newMulTable(h)
		f := func(a uint64) bool { return tab.mul(a) == gfMul(a, h) }
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("h=%#x: %v", h, err)
		}
	}
	// And for a real key-derived point.
	m := testKey(t)
	f := func(a uint64) bool { return m.tab.mul(a) == gfMul(a, m.h) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// clmulRef is the bit-serial carry-less product of a and b as the
// 128-bit value hi·x^64 ⊕ lo: the definition the kernel and reduce are
// checked against.
func clmulRef(a, b uint64) (lo, hi uint64) {
	for i := 0; i < 64; i++ {
		if a>>i&1 != 0 {
			lo ^= b << i
			if i > 0 {
				hi ^= b >> (64 - i)
			}
		}
	}
	return lo, hi
}

// reduce of a carry-less product is the field product, including the
// products whose high half reaches bit 60 (the second fold).
func TestReduceMatchesGFMul(t *testing.T) {
	f := func(a, b uint64) bool { return reduce(clmulRef(a, b)) == gfMul(a, b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]uint64{{1 << 63, 1 << 63}, {^uint64(0), ^uint64(0)}, {1 << 63, 1 << 61}, {1 << 62, 1 << 62}} {
		if !f(p[0], p[1]) {
			t.Fatalf("reduce(%#x·%#x) = %#x, gfMul %#x", p[0], p[1], reduce(clmulRef(p[0], p[1])), gfMul(p[0], p[1]))
		}
	}
}

// New's precomputed powers and length terms are h^(9−i) and L·h.
func TestPowersAndLengthTerms(t *testing.T) {
	m := testKey(t)
	want := m.h
	for e := 2; e <= 9; e++ {
		want = gfMul(want, m.h)
		if got := m.pow[9-e]; got != want {
			t.Errorf("pow[%d] = %#x, want h^%d = %#x", 9-e, got, e, want)
		}
	}
	if want := gfMul(LineSize<<3^lenMixin, m.h); m.lenLine != want {
		t.Errorf("lenLine = %#x, want %#x", m.lenLine, want)
	}
	if want := gfMul(56<<3^lenMixin, m.h); m.len56 != want {
		t.Errorf("len56 = %#x, want %#x", m.len56, want)
	}
}

// The kernel's unreduced output is exactly the XOR of the bit-serial
// products of each word with its power.
func TestKernelMatchesReference(t *testing.T) {
	if !haveCLMUL {
		t.Skip("no carry-less multiply kernel on this platform")
	}
	m := testKey(t)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		var line [LineSize]byte
		rng.Read(line[:])
		if trial == 0 {
			for i := range line {
				line[i] = 0xff
			}
		}
		var wantLo, wantHi, lo56, hi56 uint64
		for k := 0; k < 8; k++ {
			w := binary.BigEndian.Uint64(line[8*k:])
			lo, hi := clmulRef(w, m.pow[k])
			wantLo, wantHi = wantLo^lo, wantHi^hi
			if k < 7 {
				lo, hi = clmulRef(w, m.pow[k+1])
				lo56, hi56 = lo56^lo, hi56^hi
			}
		}
		if lo, hi := clmulLine(&m.pow, &line); lo != wantLo || hi != wantHi {
			t.Fatalf("clmulLine = %#x:%#x, reference %#x:%#x", hi, lo, wantHi, wantLo)
		}
		if lo, hi := clmul56(&m.pow, (*[56]byte)(line[:56])); lo != lo56 || hi != hi56 {
			t.Fatalf("clmul56 = %#x:%#x, reference %#x:%#x", hi, lo, hi56, lo56)
		}
	}
}

// Mac.Sum and Hasher.Sum64 must agree for every length, including the
// whole-word tails where the two length folds used to diverge from the
// specification.
func TestSumVsHasherAllLengths(t *testing.T) {
	m := testKey(t)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 130)
	rng.Read(data)
	for n := 0; n <= len(data); n++ {
		want := m.Sum(11, 13, data[:n])
		h := m.NewHasher(11, 13)
		h.Write(data[:n])
		if got := h.Sum64(); got != want {
			t.Fatalf("len %d: Hasher.Sum64 = %x, Mac.Sum = %x", n, got, want)
		}
	}
}

// --- GF(2^64) field properties (property-based) ---

func TestGFMulCommutative(t *testing.T) {
	f := func(a, b uint64) bool { return GFMul(a, b) == GFMul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFMulAssociative(t *testing.T) {
	f := func(a, b, c uint64) bool {
		return GFMul(GFMul(a, b), c) == GFMul(a, GFMul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFMulDistributesOverXor(t *testing.T) {
	f := func(a, b, c uint64) bool {
		return GFMul(a, b^c) == GFMul(a, b)^GFMul(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFMulIdentityAndZero(t *testing.T) {
	f := func(a uint64) bool {
		return GFMul(a, 1) == a && GFMul(1, a) == a && GFMul(a, 0) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// x^64 ≡ x^4 + x^3 + x + 1 (the reduction polynomial).
func TestGFMulReduction(t *testing.T) {
	// (x^63) * x = x^64 = 0x1b
	if got := GFMul(1<<63, 2); got != 0x1b {
		t.Fatalf("x^63 * x = %#x, want 0x1b", got)
	}
}

// Tag distribution sanity: over random inputs, each tag bit should be set
// roughly half the time.
func TestTagBitBalance(t *testing.T) {
	m := testKey(t)
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	var counts [64]int
	data := make([]byte, 64)
	for i := 0; i < n; i++ {
		rng.Read(data)
		tag := m.Sum(uint64(i)*64, uint64(i), data)
		for b := 0; b < 64; b++ {
			if tag&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if c < n/3 || c > 2*n/3 {
			t.Errorf("tag bit %d set %d/%d times — badly skewed", b, c, n)
		}
	}
}

// No tag allocates, on the kernel or the crypto/aes fallback: no
// buffer took the place the nonce pool held.
func TestTagsAllocFree(t *testing.T) {
	m := testKey(t)
	var line [LineSize]byte
	h := m.NewHasher(0x40, 1)
	h.Write(line[:13])
	for _, c := range []struct {
		name string
		tag  func() uint64
	}{
		{"SumLine", func() uint64 { return m.SumLine(0x40, 1, &line) }},
		{"Sum56", func() uint64 { return m.Sum56(0x40, 1, (*[56]byte)(line[:56])) }},
		{"Hasher.Sum64", h.Sum64},
	} {
		if got := testing.AllocsPerRun(100, func() { sinkU64 = c.tag() }); got != 0 {
			t.Errorf("%s: %v allocs per call", c.name, got)
		}
	}
}
