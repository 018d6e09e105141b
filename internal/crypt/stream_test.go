package crypt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// The append stream is BufferedWriter on the write side and DecryptingReader
// on the replay side. Its body is defined as one XORKeyStreamAt pass from
// offset 0 over the concatenated plaintext, whatever the buffer size, the
// write sizes, the read sizes and any failed-and-retried flush.

var errInjected = errors.New("injected write failure")

// appendFile keeps every byte written to it. Its failAt-th Write call (1-based;
// 0 never) fails and keeps nothing.
type appendFile struct {
	data   []byte
	calls  int
	failAt int
}

func (f *appendFile) Write(p []byte) (int, error) {
	f.calls++
	if f.calls == f.failAt {
		return 0, errInjected
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *appendFile) Sync() error  { return nil }
func (f *appendFile) Close() error { return nil }

// carryKeyIV is a fixed key and an IV whose low 64 counter bits overflow
// after three blocks, so a stream that crosses the carry is checked too.
func carryKeyIV() (DEK, [IVSize]byte) {
	var key DEK
	var iv [IVSize]byte
	for i := range key {
		key[i] = byte(i)
	}
	for i := 0; i < 8; i++ {
		iv[i] = byte(0x10 + i)
	}
	for i := 8; i < IVSize; i++ {
		iv[i] = 0xff
	}
	iv[IVSize-1] = 0xfd
	return key, iv
}

// writeStream writes plain through a BufferedWriter of bufSize in pieces of
// the given sizes (the rest in one last Write) and syncs. The one injected
// failure, if it fires, must surface once and be retried by the next flush:
// a later Write's, or a second Sync.
func writeStream(t testing.TB, key DEK, iv [IVSize]byte, bufSize int, plain []byte, pieces []byte, failAt int) []byte {
	t.Helper()
	f := &appendFile{failAt: failAt}
	w := NewBufferedWriter(f, key, iv, bufSize)
	failures := 0
	note := func(err error) {
		if err == nil {
			return
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("unexpected error %v", err)
		}
		if failures++; failures > 1 {
			t.Fatalf("injected failure surfaced %d times", failures)
		}
	}
	off := 0
	for _, n := range pieces {
		n := min(int(n), len(plain)-off)
		_, err := w.Write(plain[off : off+n])
		note(err)
		off += n
	}
	_, err := w.Write(plain[off:])
	note(err)
	if err := w.Sync(); err != nil {
		note(err)
		if err := w.Sync(); err != nil {
			t.Fatalf("retried Sync: %v", err)
		}
	}
	return f.data
}

// readStream reads body back through a DecryptingReader in reads of the
// given sizes, then the rest.
func readStream(t testing.TB, key DEK, iv [IVSize]byte, body []byte, reads []byte) []byte {
	t.Helper()
	r, err := NewDecryptingReader(io.NopCloser(bytes.NewReader(body)), key, iv)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	buf := make([]byte, 256)
	for _, n := range reads {
		k, err := r.Read(buf[:n])
		got = append(got, buf[:k]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(got, rest...)
}

// TestAppendStreamKnownAnswer pins the stream's bytes two ways: against the
// NIST SP 800-38A F.5.1 CTR-AES128 vector, written and read in pieces that
// straddle block boundaries; and against the bytes of the per-flush
// derivation the writer had before it kept its keystream (EncryptAt at
// every flush's offset), for a 10 000-byte workload at every buffer size.
func TestAppendStreamKnownAnswer(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var key DEK
	var iv [IVSize]byte
	copy(key[:], unhex("2b7e151628aed2a6abf7158809cf4f3c"))
	copy(iv[:], unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"))
	plain := unhex("6bc1bee22e409f96e93d7e117393172a" + "ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" + "f69f2445df4f9b17ad2b417be66c3710")
	want := unhex("874d6191b620e3261bef6864990db6ce" + "9806f66b7970fdff8617187bb9fffdff" +
		"5ae4df3edbd5d35e5b4f09020db03eab" + "1e031dda2fbe03d1792170a0f3009cee")
	for _, bufSize := range []int{0, 1, 20, 4096} {
		body := writeStream(t, key, iv, bufSize, plain, []byte{5, 11, 17, 1}, 0)
		if !bytes.Equal(body, want) {
			t.Fatalf("bufSize=%d: NIST vector\n got %x\nwant %x", bufSize, body, want)
		}
		if got := readStream(t, key, iv, body, []byte{3, 29, 1, 16}); !bytes.Equal(got, plain) {
			t.Fatalf("bufSize=%d: NIST vector read back %x", bufSize, got)
		}
	}

	const perFlush = "0edea1b0249d6b224a3246bcc0c1b51e3917680c05321583f98f8b91c2a486cd"
	key, iv = carryKeyIV()
	plain = make([]byte, 10000)
	rand.New(rand.NewSource(44)).Read(plain)
	var pieces []byte
	for len(pieces)*45 < len(plain) {
		pieces = append(pieces, 7, 13, 1, 100, 255, 16, 45)
	}
	for _, bufSize := range []int{0, 1, 512, 4096} {
		for _, failAt := range []int{0, 2, 9} {
			body := writeStream(t, key, iv, bufSize, plain, pieces, failAt)
			if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != perFlush {
				t.Fatalf("bufSize=%d failAt=%d: body sha256 %x, want the per-flush writer's %s", bufSize, failAt, sum, perFlush)
			}
		}
	}
}

// FuzzAppendStream: for any plaintext, write sizes, buffer size in {0, 1,
// 512, 4096}, injected failure of one inner write and read sizes, the file
// body is one XORKeyStreamAt pass from offset 0 over the plaintext, and
// reading it back returns the plaintext.
func FuzzAppendStream(f *testing.F) {
	plain := make([]byte, 3000)
	rand.New(rand.NewSource(9)).Read(plain)
	// Offsets that are not multiples of 16, with and without a failed write.
	f.Add(plain[:1000], []byte{7, 13, 100}, []byte{5, 16, 3}, uint8(0), uint8(0))
	f.Add(plain[:1000], []byte{7, 13, 100}, []byte{5, 16, 3}, uint8(0), uint8(2))
	f.Add(plain, []byte{1, 2, 3, 250, 33}, []byte{255, 1}, uint8(1), uint8(3))
	f.Add(plain, []byte{200, 200, 200, 17}, []byte{9}, uint8(2), uint8(1))
	f.Add(plain, []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 3}, []byte{}, uint8(3), uint8(2))
	f.Add([]byte{}, []byte{0, 0}, []byte{0}, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, plain, writes, reads []byte, bufSel, failAt uint8) {
		key, iv := carryKeyIV()
		bufSize := []int{0, 1, 512, 4096}[bufSel%4]
		body := writeStream(t, key, iv, bufSize, plain, writes, int(failAt))
		s, err := NewStream(key, iv)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(plain))
		s.XORKeyStreamAt(want, plain, 0)
		if !bytes.Equal(body, want) {
			t.Fatalf("bufSize=%d failAt=%d: body is not one keystream pass over the plaintext", bufSize, failAt)
		}
		if got := readStream(t, key, iv, body, reads); !bytes.Equal(got, plain) {
			t.Fatalf("bufSize=%d: read back differs from the plaintext", bufSize)
		}
	})
}
