package crypt

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"testing"

	"shield/internal/vfs"
)

// sealV2 is the format-v2 writer older builds ran: full blocks sealed
// non-final in index order, then the under-a-block tail sealed as the
// mandatory final block; the digest hashes each block's tag.
func sealV2(s *Sealer, payload []byte) (body, digest []byte) {
	h := sha256.New()
	idx := uint32(0)
	for ; len(payload) >= SealedBlockSize; idx++ {
		body = s.SealBlock(body, payload[:SealedBlockSize], idx, false)
		h.Write(body[len(body)-SealedTagSize:])
		payload = payload[SealedBlockSize:]
	}
	body = s.SealBlock(body, payload, idx, true)
	h.Write(body[len(body)-SealedTagSize:])
	return body, h.Sum(nil)
}

func openV2(t *testing.T, s *Sealer, body []byte) (*BlockSealedReaderAt, error) {
	t.Helper()
	fs := vfs.NewMem()
	if err := vfs.WriteFile(fs, "f", body); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	return NewBlockSealedReaderAt(f, s, 0)
}

// TestBlockSealedReadAt: the migration's v2 reader reads every span of a v2
// body back, and its digest is the v2 tag chain.
func TestBlockSealedReadAt(t *testing.T) {
	s, _ := newTestSealer(t)
	rng := rand.New(rand.NewSource(30))
	for _, size := range []int{0, 1, SealedBlockSize, 3*SealedBlockSize + 37} {
		payload := make([]byte, size)
		rng.Read(payload)
		body, digest := sealV2(s, payload)
		r, err := openV2(t, s, body)
		if err != nil {
			t.Fatalf("size %d: open: %v", size, err)
		}
		for _, span := range [][2]int{{0, size}, {1, size}, {SealedBlockSize - 1, 2}, {size - 1, 5}} {
			off, n := max(0, span[0]), max(0, span[1])
			p := make([]byte, n)
			got, err := r.ReadAt(p, int64(off))
			if err != nil && err != io.EOF {
				t.Fatalf("size %d: ReadAt(%d, %d): %v", size, off, n, err)
			}
			if off < size && !bytes.Equal(p[:got], payload[off:off+got]) {
				t.Fatalf("size %d: ReadAt(%d, %d): wrong bytes", size, off, n)
			}
		}
		if d, err := r.FileDigest(); err != nil || !bytes.Equal(d, digest) {
			t.Fatalf("size %d: FileDigest %x (err=%v), want %x", size, d, err, digest)
		}
		r.Close()
	}
}

// TestBlockSealedTamperDetected: a flipped byte, a cut at a block boundary
// and a v3 body are integrity errors, never bytes.
func TestBlockSealedTamperDetected(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*SealedBlockSize+100)
	rand.New(rand.NewSource(31)).Read(payload)
	body, _ := sealV2(s, payload)
	v3, _ := referenceSeal(s, [][]byte{payload})
	for pos := 0; pos < len(body); pos += 1999 {
		mut := append([]byte(nil), body...)
		mut[pos] ^= 0x40
		for name, b := range map[string][]byte{"flip": mut, "cut": body[:2*sealedCipherBlock], "v3 body": v3} {
			r, err := openV2(t, s, b)
			if err == nil {
				_, err = r.ReadAt(make([]byte, len(payload)), 0)
				r.Close()
			}
			if !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("%s (pos %d): not detected (err=%v)", name, pos, err)
			}
		}
	}
}
