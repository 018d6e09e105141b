package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"
	"testing/quick"

	"shield/internal/vfs"
)

func testKeyIV(t *testing.T) (DEK, [IVSize]byte) {
	t.Helper()
	key, err := NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	iv, err := NewIV()
	if err != nil {
		t.Fatal(err)
	}
	return key, iv
}

func TestDEKFromBytes(t *testing.T) {
	if _, err := DEKFromBytes(make([]byte, 15)); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := DEKFromBytes(make([]byte, 17)); err == nil {
		t.Fatal("long key accepted")
	}
	raw := bytes.Repeat([]byte{7}, KeySize)
	dek, err := DEKFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dek[:], raw) {
		t.Fatal("round trip mismatch")
	}
}

func TestDEKStringRedacts(t *testing.T) {
	dek, _ := NewDEK()
	if s := dek.String(); bytes.Contains([]byte(s), dek[:4]) || s != "DEK(redacted)" {
		t.Fatalf("DEK leaked through String: %q", s)
	}
}

// TestStreamMatchesStdCTR: XORKeyStreamAt at offset 0 must equal the
// standard library CTR stream, and arbitrary offsets must equal the
// corresponding slice of that stream.
func TestStreamMatchesStdCTR(t *testing.T) {
	key, iv := testKeyIV(t)
	const n = 64 * 1024
	plain := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(plain)

	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	cipher.NewCTR(block, iv[:]).XORKeyStream(want, plain)

	s, err := NewStream(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	s.XORKeyStreamAt(got, plain, 0)
	if !bytes.Equal(want, got) {
		t.Fatal("offset-0 stream differs from stdlib CTR")
	}

	// Random offsets/lengths must match the same keystream.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		off := rng.Intn(n - 1)
		length := 1 + rng.Intn(n-off)
		chunk := make([]byte, length)
		s.XORKeyStreamAt(chunk, plain[off:off+length], int64(off))
		if !bytes.Equal(chunk, want[off:off+length]) {
			t.Fatalf("offset %d len %d differs", off, length)
		}
	}
}

// TestStreamIVCarry exercises counter overflow from the low 64 bits.
func TestStreamIVCarry(t *testing.T) {
	key, _ := testKeyIV(t)
	var iv [IVSize]byte
	for i := 8; i < 16; i++ {
		iv[i] = 0xff // low counter = max: first block increment carries
	}
	s, err := NewStream(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 3*aes.BlockSize)

	// Contiguous encryption.
	all := make([]byte, len(plain))
	s.XORKeyStreamAt(all, plain, 0)
	// Same bytes encrypted block-by-block at offsets must agree.
	for off := 0; off < len(plain); off += aes.BlockSize {
		chunk := make([]byte, aes.BlockSize)
		s.XORKeyStreamAt(chunk, plain[off:off+aes.BlockSize], int64(off))
		if !bytes.Equal(chunk, all[off:off+aes.BlockSize]) {
			t.Fatalf("carry mismatch at offset %d", off)
		}
	}
}

// Property: encrypt then decrypt at any offset is the identity.
func TestEncryptDecryptRoundTripProperty(t *testing.T) {
	key, iv := testKeyIV(t)
	f := func(data []byte, off uint32) bool {
		ct := make([]byte, len(data))
		if err := EncryptAt(key, iv, ct, data, int64(off)); err != nil {
			return false
		}
		pt := make([]byte, len(data))
		if err := EncryptAt(key, iv, pt, ct, int64(off)); err != nil {
			return false
		}
		return bytes.Equal(pt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ciphertext differs from plaintext (for non-trivial input) and
// different offsets produce different ciphertext.
func TestCiphertextProperties(t *testing.T) {
	key, iv := testKeyIV(t)
	data := bytes.Repeat([]byte("A"), 1024)
	ct1 := make([]byte, len(data))
	ct2 := make([]byte, len(data))
	if err := EncryptAt(key, iv, ct1, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := EncryptAt(key, iv, ct2, data, 1024); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1, data) {
		t.Fatal("ciphertext equals plaintext")
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatal("different offsets produced identical ciphertext (keystream reuse)")
	}
}

func TestPBKDF2KnownVector(t *testing.T) {
	// RFC 6070-style vector adapted for SHA-256 (from RFC 7914 test data):
	// PBKDF2-HMAC-SHA256("passwd", "salt", 1, 64) prefix.
	got := PBKDF2SHA256([]byte("passwd"), []byte("salt"), 1, 8)
	want := []byte{0x55, 0xac, 0x04, 0x6e, 0x56, 0xe3, 0x08, 0x9f}
	if !bytes.Equal(got, want) {
		t.Fatalf("PBKDF2 vector mismatch: got %x want %x", got, want)
	}
}

func TestPBKDF2Properties(t *testing.T) {
	a := PBKDF2SHA256([]byte("pw"), []byte("salt"), 100, 48)
	b := PBKDF2SHA256([]byte("pw"), []byte("salt"), 100, 48)
	if !bytes.Equal(a, b) {
		t.Fatal("PBKDF2 not deterministic")
	}
	c := PBKDF2SHA256([]byte("pw2"), []byte("salt"), 100, 48)
	if bytes.Equal(a, c) {
		t.Fatal("different passwords produced the same key")
	}
	d := PBKDF2SHA256([]byte("pw"), []byte("salt2"), 100, 48)
	if bytes.Equal(a, d) {
		t.Fatal("different salts produced the same key")
	}
	if len(PBKDF2SHA256([]byte("x"), []byte("y"), 2, 100)) != 100 {
		t.Fatal("wrong derived length")
	}
}

func TestHMACVerify(t *testing.T) {
	key := []byte("k")
	data := []byte("data")
	tag := HMACSHA256(key, data)
	if !VerifyHMACSHA256(key, data, tag) {
		t.Fatal("valid tag rejected")
	}
	tag[0] ^= 1
	if VerifyHMACSHA256(key, data, tag) {
		t.Fatal("tampered tag accepted")
	}
}

// TestBufferedWriterEquivalence: any buffer size must produce the same
// ciphertext stream as unbuffered writing.
func TestBufferedWriterEquivalence(t *testing.T) {
	key, iv := testKeyIV(t)
	payload := make([]byte, 10000)
	rand.New(rand.NewSource(3)).Read(payload)

	write := func(bufSize int, pieces []int) []byte {
		fs := vfs.NewMem()
		f, _ := fs.Create("f")
		w := NewBufferedWriter(f, key, iv, bufSize)
		off := 0
		for _, p := range pieces {
			if off+p > len(payload) {
				p = len(payload) - off
			}
			if _, err := w.Write(payload[off : off+p]); err != nil {
				t.Fatal(err)
			}
			off += p
		}
		if _, err := w.Write(payload[off:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, _ := vfs.ReadFile(fs, "f")
		return data
	}

	ref := write(0, []int{100, 1, 977, 3000})
	for _, bufSize := range []int{1, 64, 512, 4096, 100000} {
		got := write(bufSize, []int{7, 700, 7000})
		if !bytes.Equal(ref, got) {
			t.Fatalf("bufSize=%d produced different ciphertext", bufSize)
		}
	}
}

// TestBufferedWriterSyncFlushes: Sync must persist buffered bytes.
func TestBufferedWriterSyncFlushes(t *testing.T) {
	key, iv := testKeyIV(t)
	fs := vfs.NewMem()
	f, _ := fs.Create("f")
	w := NewBufferedWriter(f, key, iv, 1<<20) // huge buffer: nothing auto-flushes
	if _, err := w.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if info, _ := fs.Stat("f"); info.Size != 0 {
		t.Fatalf("bytes reached disk before Sync: %d", info.Size)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len("hello world")) {
		t.Fatalf("Sync persisted %d bytes", info.Size)
	}
	w.Close()
}

// TestDecryptingReaderAt reads back what the writers stored, at offsets.
func TestDecryptingReaderAt(t *testing.T) {
	key, iv := testKeyIV(t)
	fs := vfs.NewMem()

	header := []byte("HDR!")
	payload := make([]byte, 5000)
	rand.New(rand.NewSource(4)).Read(payload)

	raw, _ := fs.Create("f")
	raw.Write(header)
	w := NewBufferedWriter(raw, key, iv, 256)
	w.Write(payload)
	w.Close()

	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewDecryptingReaderAt(f, key, iv, int64(len(header)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	size, err := r.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(payload)) {
		t.Fatalf("size %d, want %d", size, len(payload))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		off := rng.Intn(len(payload) - 1)
		length := 1 + rng.Intn(len(payload)-off)
		buf := make([]byte, length)
		if _, err := r.ReadAt(buf, int64(off)); err != nil && err.Error() != "EOF" {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload[off:off+length]) {
			t.Fatalf("ReadAt(%d,%d) mismatch", off, length)
		}
	}
}

// TestChunkedWriterLengths: under the parallel pipeline every payload length,
// including the empty one and Writes above SealedRecordMax, stores the
// plaintext plus a tag per record plus the table and count.
func TestChunkedWriterLengths(t *testing.T) {
	key, iv := testKeyIV(t)
	sealer, err := NewSealer(key, iv[:SealedNoncePrefixLen], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []int{0, 1, 4095, 4096, 4097, 1 << 20} {
		fs := vfs.NewMem()
		f, _ := fs.Create("f")
		w := NewSealedWriter(f, sealer, 4096, 3)
		payload := make([]byte, total)
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		info, _ := fs.Stat("f")
		records := (total + SealedRecordMax - 1) / SealedRecordMax
		if want := int64(total + records*(SealedTagSize+4) + SealedTagSize + sealedCountLen); info.Size != want {
			t.Fatalf("total=%d: stored %d bytes, want %d", total, info.Size, want)
		}
	}
}
