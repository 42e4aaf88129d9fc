package ctrenc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := New(bytes.Repeat([]byte{0x17}, KeySize))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestNewRejectsBadKey(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17, 24} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New accepted %d-byte key", n)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := testEngine(t)
	f := func(seed int64, addr uint64, ctr uint64) bool {
		ctr &= CounterMax
		rng := rand.New(rand.NewSource(seed))
		plain := make([]byte, LineSize)
		rng.Read(plain)
		ct := make([]byte, LineSize)
		if err := e.Encrypt(ct, plain, addr, ctr); err != nil {
			return false
		}
		pt := make([]byte, LineSize)
		if err := e.Decrypt(pt, ct, addr, ctr); err != nil {
			return false
		}
		return bytes.Equal(pt, plain)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptInPlace(t *testing.T) {
	e := testEngine(t)
	plain := bytes.Repeat([]byte{0xAB}, LineSize)
	line := make([]byte, LineSize)
	copy(line, plain)
	if err := e.Encrypt(line, line, 0x100, 5); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(line, plain) {
		t.Fatal("in-place encryption left plaintext unchanged")
	}
	if err := e.Decrypt(line, line, 0x100, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, plain) {
		t.Fatal("in-place round trip failed")
	}
}

func TestCiphertextVariesWithCounter(t *testing.T) {
	e := testEngine(t)
	plain := make([]byte, LineSize)
	c1 := make([]byte, LineSize)
	c2 := make([]byte, LineSize)
	e.Encrypt(c1, plain, 0x40, 1)
	e.Encrypt(c2, plain, 0x40, 2)
	if bytes.Equal(c1, c2) {
		t.Fatal("same ciphertext for different counters (temporal pad reuse)")
	}
}

func TestCiphertextVariesWithAddress(t *testing.T) {
	e := testEngine(t)
	plain := make([]byte, LineSize)
	c1 := make([]byte, LineSize)
	c2 := make([]byte, LineSize)
	e.Encrypt(c1, plain, 0x40, 1)
	e.Encrypt(c2, plain, 0x80, 1)
	if bytes.Equal(c1, c2) {
		t.Fatal("same ciphertext for different addresses (spatial pad reuse)")
	}
}

func TestPadBlocksDistinct(t *testing.T) {
	e := testEngine(t)
	pad := make([]byte, LineSize)
	if err := e.Pad(pad, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 4; j++ {
			if bytes.Equal(pad[i*16:(i+1)*16], pad[j*16:(j+1)*16]) {
				t.Fatalf("pad blocks %d and %d identical", i, j)
			}
		}
	}
}

func TestCounterOverflow(t *testing.T) {
	e := testEngine(t)
	line := make([]byte, LineSize)
	if err := e.Encrypt(line, line, 0, CounterMax+1); err != ErrCounterOverflow {
		t.Fatalf("Encrypt past CounterMax: err = %v, want ErrCounterOverflow", err)
	}
	if err := e.Encrypt(line, line, 0, CounterMax); err != nil {
		t.Fatalf("Encrypt at CounterMax: %v", err)
	}
}

func TestNextCounter(t *testing.T) {
	if c, err := NextCounter(0); err != nil || c != 1 {
		t.Fatalf("NextCounter(0) = %d, %v", c, err)
	}
	if c, err := NextCounter(CounterMax - 1); err != nil || c != CounterMax {
		t.Fatalf("NextCounter(max-1) = %d, %v", c, err)
	}
	if _, err := NextCounter(CounterMax); err != ErrCounterOverflow {
		t.Fatalf("NextCounter(max): err = %v, want ErrCounterOverflow", err)
	}
}

func TestDecryptWithWrongCounterGarbles(t *testing.T) {
	e := testEngine(t)
	plain := []byte("replayed tuple must not decrypt to the fresh plaintext!!!!!!!!!!")[:LineSize]
	ct := make([]byte, LineSize)
	e.Encrypt(ct, plain, 0x200, 9)
	pt := make([]byte, LineSize)
	e.Decrypt(pt, ct, 0x200, 8) // stale counter, as in a replay attack
	if bytes.Equal(pt, plain) {
		t.Fatal("decryption with stale counter yielded original plaintext")
	}
}

// A dst that overlaps src without being it returns ErrOverlap (it used
// to panic in subtle.XORBytes) and leaves the buffer untouched; a
// disjoint dst in the same array works.
func TestInexactOverlapError(t *testing.T) {
	e := testEngine(t)
	buf := make([]byte, 2*LineSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	orig := bytes.Clone(buf)
	for _, c := range []struct{ dst, src int }{{8, 0}, {0, 8}, {1, 0}, {0, 63}, {63, 0}} {
		dst, src := buf[c.dst:c.dst+LineSize], buf[c.src:c.src+LineSize]
		if err := e.Encrypt(dst, src, 0x40, 1); !errors.Is(err, ErrOverlap) {
			t.Errorf("Encrypt(buf[%d:], buf[%d:]): err = %v, want ErrOverlap", c.dst, c.src, err)
		}
		if err := e.Decrypt(dst, src, 0x40, 1); !errors.Is(err, ErrOverlap) {
			t.Errorf("Decrypt(buf[%d:], buf[%d:]): err = %v, want ErrOverlap", c.dst, c.src, err)
		}
		if !bytes.Equal(buf, orig) {
			t.Fatalf("a rejected call (dst %d, src %d) wrote to the buffer", c.dst, c.src)
		}
	}
	if err := e.Encrypt(buf[LineSize:], buf[:LineSize], 0x40, 1); err != nil {
		t.Fatalf("Encrypt into the adjacent line: %v", err)
	}
	if err := e.Decrypt(buf[LineSize:], buf[LineSize:], 0x40, 1); err != nil || !bytes.Equal(buf[LineSize:], orig[:LineSize]) {
		t.Fatalf("in-place Decrypt of the adjacent line: err %v, round trip %v", err, bytes.Equal(buf[LineSize:], orig[:LineSize]))
	}
}

func TestShortLineError(t *testing.T) {
	e := testEngine(t)
	for _, n := range []int{0, 32, 63, 65, 128} {
		if err := e.Encrypt(make([]byte, n), make([]byte, n), 0, 0); !errors.Is(err, ErrBadLength) {
			t.Errorf("Encrypt with %d-byte line: err = %v, want ErrBadLength", n, err)
		}
		if err := e.Decrypt(make([]byte, n), make([]byte, n), 0, 0); !errors.Is(err, ErrBadLength) {
			t.Errorf("Decrypt with %d-byte line: err = %v, want ErrBadLength", n, err)
		}
	}
	// Mismatched dst/src must also be rejected.
	if err := e.Encrypt(make([]byte, LineSize), make([]byte, 32), 0, 0); !errors.Is(err, ErrBadLength) {
		t.Errorf("Encrypt with short src: err = %v, want ErrBadLength", err)
	}
}

// Pad follows the same error contract as Encrypt/Decrypt: ErrBadLength
// for a wrong-sized buffer (it used to panic), ErrCounterOverflow for an
// unrepresentable counter.
func TestPadErrorContract(t *testing.T) {
	e := testEngine(t)
	for _, n := range []int{0, 16, 63, 65} {
		if err := e.Pad(make([]byte, n), 0, 0); !errors.Is(err, ErrBadLength) {
			t.Errorf("Pad with %d-byte buffer: err = %v, want ErrBadLength", n, err)
		}
	}
	if err := e.Pad(make([]byte, LineSize), 0, CounterMax+1); !errors.Is(err, ErrCounterOverflow) {
		t.Errorf("Pad past CounterMax: err = %v, want ErrCounterOverflow", err)
	}
	if err := e.Pad(make([]byte, LineSize), 0, CounterMax); err != nil {
		t.Errorf("Pad at CounterMax: %v", err)
	}
}

// The pad is what Encrypt XORs in: plain XOR Pad == ciphertext.
func TestPadMatchesEncrypt(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(4))
	plain := make([]byte, LineSize)
	rng.Read(plain)
	ct := make([]byte, LineSize)
	if err := e.Encrypt(ct, plain, 0x7c0, 99); err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, LineSize)
	if err := e.Pad(pad, 0x7c0, 99); err != nil {
		t.Fatal(err)
	}
	for i := range pad {
		if plain[i]^pad[i] != ct[i] {
			t.Fatalf("byte %d: pad does not reproduce the cipher stream", i)
		}
	}
}

func TestPadBatchMatchesPad(t *testing.T) {
	e := testEngine(t)
	const n = 9
	addrs := make([]uint64, n)
	ctrs := make([]uint64, n)
	for k := range addrs {
		addrs[k] = uint64(k) * 0x40
		ctrs[k] = uint64(k * 31 % 7)
	}
	batch := make([]byte, n*LineSize)
	if err := e.PadBatch(batch, addrs, ctrs); err != nil {
		t.Fatal(err)
	}
	single := make([]byte, LineSize)
	for k := range addrs {
		if err := e.Pad(single, addrs[k], ctrs[k]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single, batch[k*LineSize:(k+1)*LineSize]) {
			t.Fatalf("pad %d differs between Pad and PadBatch", k)
		}
	}
}

func TestPadBatchErrors(t *testing.T) {
	e := testEngine(t)
	if err := e.PadBatch(make([]byte, LineSize), []uint64{0, 1}, []uint64{0, 1}); !errors.Is(err, ErrBadLength) {
		t.Errorf("short dst: err = %v, want ErrBadLength", err)
	}
	if err := e.PadBatch(make([]byte, 2*LineSize), []uint64{0, 1}, []uint64{0}); err == nil {
		t.Error("mismatched addr/counter slices accepted")
	}
	if err := e.PadBatch(make([]byte, LineSize), []uint64{0}, []uint64{CounterMax + 1}); !errors.Is(err, ErrCounterOverflow) {
		t.Errorf("overflow counter: err = %v, want ErrCounterOverflow", err)
	}
}

func BenchmarkEncryptLine(b *testing.B) {
	e := testEngine(b)
	line := make([]byte, LineSize)
	b.SetBytes(LineSize)
	for i := 0; i < b.N; i++ {
		_ = e.Encrypt(line, line, uint64(i)<<6, uint64(i)&CounterMax)
	}
}

// No entry point allocates, on the kernel or the crypto/aes fallback:
// no buffer took the place the scratch pool held.
func TestEntryPointsAllocFree(t *testing.T) {
	e := testEngine(t)
	var dst, src [LineSize]byte
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"Pad", func() error { return e.Pad(dst[:], 0x40, 1) }},
		{"Encrypt", func() error { return e.Encrypt(dst[:], src[:], 0x40, 1) }},
		{"Encrypt in place", func() error { return e.Encrypt(src[:], src[:], 0x40, 1) }},
		{"Decrypt", func() error { return e.Decrypt(dst[:], src[:], 0x40, 1) }},
		{"Decrypt in place", func() error { return e.Decrypt(src[:], src[:], 0x40, 1) }},
	} {
		var err error
		if got := testing.AllocsPerRun(100, func() { err = c.op() }); got != 0 || err != nil {
			t.Errorf("%s: %v allocs per call, err %v", c.name, got, err)
		}
	}
}
