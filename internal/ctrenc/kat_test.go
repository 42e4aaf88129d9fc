package ctrenc

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"
)

// padVectors were produced by the engine that wrote every stored line
// and SYNSNAP1 snapshot so far (key 0x17 repeated, testEngine). A
// restaging of pad generation that changes one of these bytes makes all
// of that state unreadable, so it must fail here first.
var padVectors = []struct {
	addr, ctr uint64
	pad       string
}{
	{0x0, 0x0, "bb99d2e3ac23a9563b14ae39f8cb2ff3032faaa66aaa000213e38fcdae4efde9731b97fde45e089798414b380ab3b940ffb291de3057ff446d05872be2ebff06"},
	{0x7c0, 0x63, "6e495afefbb54a1b4dc3b66d6c0dac31eb38bfe428bb8cc7af6a8527cb81931e1bcf459302031dd38bc8c5eba7f4dd713935103be3583f56bfba159779796a95"},
	{0xdeadbeef40, CounterMax, "854d5bbdc239b5400d531a7d01449db47b43a517b38da93b6840b84b84c0f1ee5d2e59b20b3a1fafef2037646a5bd5f9a889d3aaf891fa4be10dedae67686933"},
	{0x8000000000000040, 0x80000000000000, "63dceaf19f5f7a4d967398a005de6d035730061694ec1e17a3e37f2567821b2b46f418eaa1c73901175a6466c6cdd0a224669dcc0876b49c045c89cddb36454c"},
}

// directPad computes the pad the way the package doc defines it, one
// crypto/aes call per block: AES_K(addr || blk<<56 | ctr).
func directPad(t testing.TB, addr, ctr uint64) []byte {
	t.Helper()
	b, err := aes.NewCipher(bytes.Repeat([]byte{0x17}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, LineSize)
	var in [aes.BlockSize]byte
	for blk := uint64(0); blk < LineSize/aes.BlockSize; blk++ {
		binary.BigEndian.PutUint64(in[:8], addr)
		binary.BigEndian.PutUint64(in[8:], blk<<56|ctr)
		b.Encrypt(pad[blk*aes.BlockSize:], in[:])
	}
	return pad
}

func TestPadKnownAnswers(t *testing.T) {
	e := testEngine(t)
	got := make([]byte, LineSize)
	for _, v := range padVectors {
		want, _ := hex.DecodeString(v.pad)
		if err := e.Pad(got, v.addr, v.ctr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Pad(%#x, %#x) = %x, want %x", v.addr, v.ctr, got, want)
		}
		if direct := directPad(t, v.addr, v.ctr); !bytes.Equal(direct, want) {
			t.Errorf("direct AES pad(%#x, %#x) = %x, want %x", v.addr, v.ctr, direct, want)
		}
	}
	// The other entry points produce the same pads: PadBatch over all
	// vectors at once, and Encrypt of a zero line.
	addrs := make([]uint64, len(padVectors))
	ctrs := make([]uint64, len(padVectors))
	for k, v := range padVectors {
		addrs[k], ctrs[k] = v.addr, v.ctr
	}
	batch := make([]byte, len(padVectors)*LineSize)
	if err := e.PadBatch(batch, addrs, ctrs); err != nil {
		t.Fatal(err)
	}
	for k, v := range padVectors {
		want, _ := hex.DecodeString(v.pad)
		if !bytes.Equal(batch[k*LineSize:(k+1)*LineSize], want) {
			t.Errorf("PadBatch entry %d differs from its vector", k)
		}
		if err := e.Encrypt(got, make([]byte, LineSize), v.addr, v.ctr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Encrypt of zeros at (%#x, %#x) differs from its pad vector", v.addr, v.ctr)
		}
	}
}

// TestPadMatchesDirectAES checks random (addr, ctr) pairs against the
// definition, including the counter extremes.
func TestPadMatchesDirectAES(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(12))
	got := make([]byte, LineSize)
	for i := 0; i < 200; i++ {
		addr, ctr := rng.Uint64(), rng.Uint64()&CounterMax
		switch i {
		case 0:
			ctr = 0
		case 1:
			ctr = CounterMax
		}
		if err := e.Pad(got, addr, ctr); err != nil {
			t.Fatal(err)
		}
		if want := directPad(t, addr, ctr); !bytes.Equal(got, want) {
			t.Fatalf("Pad(%#x, %#x) = %x, want %x", addr, ctr, got, want)
		}
	}
}

func TestEncryptKnownAnswer(t *testing.T) {
	e := testEngine(t)
	plain := make([]byte, LineSize)
	for i := range plain {
		plain[i] = byte(i)
	}
	want, _ := hex.DecodeString("19a717e776aa8c6f4eec8517e78b5490512aa8e71aac6a98a90c7f24a042f4e74a4696d8b0b32540418cd121f3b425c015c4cb4ab524cc523f4847c2533c058e")
	got := make([]byte, LineSize)
	if err := e.Encrypt(got, plain, 0x1000, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encrypt = %x, want %x", got, want)
	}
}

// Aliased calls take the pooled-pad path, separate ones stage the pad
// in dst; both must produce the same bytes.
func TestAliasedMatchesOutOfPlace(t *testing.T) {
	e := testEngine(t)
	const n = 5
	rng := rand.New(rand.NewSource(13))
	src := make([]byte, n*LineSize)
	rng.Read(src)
	addrs := make([]uint64, n)
	ctrs := make([]uint64, n)
	for k := range addrs {
		addrs[k], ctrs[k] = rng.Uint64(), rng.Uint64()&CounterMax
	}
	for name, op := range map[string]func(dst, src []byte, addr, ctr uint64) error{
		"Encrypt": e.Encrypt,
		"Decrypt": e.Decrypt,
	} {
		for k := range addrs {
			line := src[k*LineSize : (k+1)*LineSize]
			want := make([]byte, LineSize)
			if err := op(want, line, addrs[k], ctrs[k]); err != nil {
				t.Fatal(err)
			}
			got := bytes.Clone(line)
			if err := op(got, got, addrs[k], ctrs[k]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s in place differs from out of place (line %d)", name, k)
			}
		}
	}
}

// One Engine serves every rank of an Array; concurrent use must give
// the serial results.
func TestSharedEngineConcurrent(t *testing.T) {
	e := testEngine(t)
	const workers, lines = 8, 64
	want := make([]byte, lines*LineSize)
	for k := 0; k < lines; k++ {
		if err := e.Pad(want[k*LineSize:(k+1)*LineSize], uint64(k)<<6, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]byte, LineSize)
			for r := 0; r < 50; r++ {
				k := (w*7 + r) % lines
				var err error
				if r%2 == 0 {
					err = e.Pad(got, uint64(k)<<6, uint64(k))
				} else {
					clear(got)
					err = e.Encrypt(got, got, uint64(k)<<6, uint64(k)) // pooled path
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[k*LineSize:(k+1)*LineSize]) {
					t.Errorf("worker %d: line %d pad differs from the serial one", w, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
