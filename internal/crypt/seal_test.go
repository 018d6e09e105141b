package crypt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"shield/internal/vfs"
)

func newTestSealer(t testing.TB) (*Sealer, DEK) {
	t.Helper()
	dek, err := NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSealer(dek, []byte("8bytepfx"), []byte("file-header-aad"))
	if err != nil {
		t.Fatal(err)
	}
	return s, dek
}

// sealToMem writes payload through a default SealedWriter and returns the
// raw body.
func sealToMem(t testing.TB, s *Sealer, payload []byte) []byte {
	t.Helper()
	body, _ := sealWith(t, s, payload, 0, 0)
	return body
}

func openSealed(t testing.TB, s *Sealer, body []byte) (*SealedReaderAt, error) {
	t.Helper()
	fs := vfs.NewMem()
	if err := vfs.WriteFile(fs, "f", body); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	return NewSealedReaderAt(f, s, 0)
}

func TestSealedRoundTripSizes(t *testing.T) {
	s, _ := newTestSealer(t)
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, SealedBlockSize - 1, SealedBlockSize,
		SealedBlockSize + 1, 3 * SealedBlockSize, 3*SealedBlockSize + 37} {
		payload := make([]byte, size)
		rng.Read(payload)
		body := sealToMem(t, s, payload)

		// The layout invariant: every file ends with a mandatory final
		// block, so the body is never a clean multiple of the cipher block.
		wantLen := (size/SealedBlockSize+1)*SealedTagSize + size
		if len(body) != wantLen {
			t.Fatalf("size %d: body %d bytes, want %d", size, len(body), wantLen)
		}

		r, err := openSealed(t, s, body)
		if err != nil {
			t.Fatalf("size %d: open: %v", size, err)
		}
		if ps, _ := r.Size(); ps != int64(size) {
			t.Fatalf("size %d: plain size %d", size, ps)
		}
		got := make([]byte, size)
		if size > 0 {
			if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatalf("size %d: read: %v", size, err)
			}
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
		r.Close()
	}
}

func TestSealedTamperEveryRegionDetected(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*SealedBlockSize+100)
	rand.New(rand.NewSource(8)).Read(payload)
	body := sealToMem(t, s, payload)

	// Flip one bit in a sample of positions covering every block and both
	// ciphertext and tag bytes; each must surface as vfs.ErrIntegrity from
	// the read covering it, never as silently different plaintext.
	for pos := 0; pos < len(body); pos += 997 {
		mut := append([]byte(nil), body...)
		mut[pos] ^= 0x40
		r, err := openSealed(t, s, mut)
		if err != nil {
			if !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("pos %d: open error not integrity: %v", pos, err)
			}
			continue
		}
		got := make([]byte, len(payload))
		_, err = r.ReadAt(got, 0)
		r.Close()
		if err == nil || !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("pos %d: tamper not detected (err=%v)", pos, err)
		}
	}
}

func TestSealedTruncationDetected(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*SealedBlockSize+100)
	rand.New(rand.NewSource(9)).Read(payload)
	body := sealToMem(t, s, payload)

	cuts := []int{
		len(body) - 1,                   // inside the final block
		len(body) - 100 - SealedTagSize, // exactly at the last full-block boundary
		sealedCipherBlock,               // after one full block
		SealedTagSize - 1,               // shorter than one tag
		0,                               // empty body
	}
	for _, cut := range cuts {
		r, err := openSealed(t, s, body[:cut])
		if err == nil {
			// Boundary truncation passes the size check; the last block then
			// fails its final-flag AAD on read.
			got := make([]byte, cut)
			_, err = r.ReadAt(got, 0)
			r.Close()
		}
		if err == nil || !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("cut %d: truncation not detected (err=%v)", cut, err)
		}
	}
}

func TestSealedBlockSpliceDetected(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 3*SealedBlockSize)
	rand.New(rand.NewSource(10)).Read(payload)
	body := sealToMem(t, s, payload)

	// Swap blocks 0 and 1: both authenticate under their original index, so
	// the index in nonce+AAD must reject them at the new positions.
	mut := append([]byte(nil), body...)
	copy(mut[0:sealedCipherBlock], body[sealedCipherBlock:2*sealedCipherBlock])
	copy(mut[sealedCipherBlock:2*sealedCipherBlock], body[0:sealedCipherBlock])
	r, err := openSealed(t, s, mut)
	if err == nil {
		got := make([]byte, SealedBlockSize)
		_, err = r.ReadAt(got, 0)
		r.Close()
	}
	if err == nil || !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("block reorder not detected (err=%v)", err)
	}
}

func TestTagChainDigestMatchesWriterAndReader(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*SealedBlockSize+55)
	rand.New(rand.NewSource(11)).Read(payload)

	fs := vfs.NewMem()
	f, _ := fs.Create("f")
	w := NewSealedWriter(f, s, 0, 0)
	w.Write(payload)
	if _, ok := w.FileDigest(); ok {
		t.Fatal("digest available before finalization")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wd, ok := w.FileDigest()
	if !ok {
		t.Fatal("no digest after Close")
	}

	body, _ := vfs.ReadFile(fs, "f")
	// Keyless digest over the ciphertext must match the writer's.
	cd, err := TagChainDigest(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wd, cd) {
		t.Fatal("TagChainDigest != writer digest")
	}
	// And the reader's (tag-scan and full-verify paths).
	r, err := openSealed(t, s, body)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rd, err := r.FileDigest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wd, rd) {
		t.Fatal("reader FileDigest != writer digest")
	}
	vd, err := r.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wd, vd) {
		t.Fatal("VerifyAll digest != writer digest")
	}
}

// referenceSeal is the format definition the writer is held to: full blocks
// sealed non-final in index order, then the under-a-block tail sealed as the
// mandatory final block; the digest hashes each block's trailing tag.
func referenceSeal(s *Sealer, payload []byte) (body, digest []byte) {
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

// writerMatrix is every (workers, chunkSize) the one writer is checked at:
// inline and parallel, one block per chunk up to the production default.
func writerMatrix(fn func(workers, chunk int)) {
	for _, workers := range []int{0, 1, 2, 4} {
		for _, chunk := range []int{SealedBlockSize, 2 * SealedBlockSize, 64 << 10} {
			fn(workers, chunk)
		}
	}
}

// sealWith writes payload through NewSealedWriter(chunk, workers) in uneven
// pieces (exercising chunk buffering) and returns the body and digest.
func sealWith(t testing.TB, s *Sealer, payload []byte, chunk, workers int) (body, digest []byte) {
	t.Helper()
	fs := vfs.NewMem()
	f, _ := fs.Create("f")
	w := NewSealedWriter(f, s, chunk, workers)
	for off := 0; off < len(payload); off += 3000 {
		if _, err := w.Write(payload[off:min(off+3000, len(payload))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	body, _ = vfs.ReadFile(fs, "f")
	digest, ok := w.FileDigest()
	if !ok {
		t.Fatalf("workers=%d chunk=%d: no digest after Close", workers, chunk)
	}
	return body, digest
}

func TestChunkedSealedWriterMatchesSerial(t *testing.T) {
	dek, err := NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 5*SealedBlockSize+1234)
	rand.New(rand.NewSource(12)).Read(payload)
	s, _ := NewSealer(dek, []byte("8bytepfx"), []byte("hdr"))
	want, wantDigest := referenceSeal(s, payload)

	// Output must be byte-identical for every worker count and chunk size.
	writerMatrix(func(workers, chunk int) {
		got, gd := sealWith(t, s, payload, chunk, workers)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d chunk=%d: output differs from the reference loop", workers, chunk)
		}
		if !bytes.Equal(gd, wantDigest) {
			t.Fatalf("workers=%d chunk=%d: digest differs from the reference loop", workers, chunk)
		}
	})
}

// TestSealedWriterKnownAnswer pins the on-disk format across commits: the
// expected hashes were recorded from the serial and the chunked writer of
// the commit before the two were folded into one (they agreed), so a match
// here means files written then and now are the same bytes.
func TestSealedWriterKnownAnswer(t *testing.T) {
	dek := DEK{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	s, err := NewSealer(dek, []byte("KATnonce"), []byte("shield-kat-header-v2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kat := range []struct {
		size         int
		body, digest string // sha256 of the sealed body; tag-chain digest
	}{
		{0, "bb80e792a99fd7a5aa27803728bdc4e570c316c21edfde5462eb04d772e3afe7", "bb80e792a99fd7a5aa27803728bdc4e570c316c21edfde5462eb04d772e3afe7"},
		{1234, "46b82eb086234609edf18608a676ba6a9cd89bb09f73c3f9ebe35ce728c0717d", "7973febf686e8c840991bab83f164848f353aed9ae4c6113f270b837c1a1d5cf"},
		{SealedBlockSize, "eaf9576ade9f2599c857909529a7bf03022d87bc75eb0934b027ccac1bae310e", "1bed827613ffb7f33d9ae50324a14a7c798496b1fc3ccbc6212058e62fb9ae47"},
		{5*SealedBlockSize + 1234, "9f6b5ddafb506824a0c4d1e86e83744219582f231e9416221f4633214bb26ceb", "58398d29e189b360a50a19253b920f799a104dfe553f84fa194e2d87bb85ccba"},
		{128 << 10, "5b0f4a35e887ceebfc86f87aa778597bbdde003034cc31d9d3db55e3e78e783f", "5ad962346b9a80fd08858b1e9f47ffcac94e52f0d110275f6bbd11d2a247300b"},
	} {
		payload := make([]byte, kat.size)
		for i := range payload {
			payload[i] = byte(i*7 + i>>8)
		}
		writerMatrix(func(workers, chunk int) {
			body, digest := sealWith(t, s, payload, chunk, workers)
			if got := sha256.Sum256(body); hex.EncodeToString(got[:]) != kat.body {
				t.Fatalf("size=%d workers=%d chunk=%d: sealed body %x, recorded %s", kat.size, workers, chunk, got, kat.body)
			}
			if hex.EncodeToString(digest) != kat.digest {
				t.Fatalf("size=%d workers=%d chunk=%d: digest %x, recorded %s", kat.size, workers, chunk, digest, kat.digest)
			}
		})
		// The recorded bytes also open and verify under today's reader.
		body, _ := referenceSeal(s, payload)
		r, err := openSealed(t, s, body)
		if err != nil {
			t.Fatal(err)
		}
		vd, err := r.VerifyAll()
		r.Close()
		if err != nil || hex.EncodeToString(vd) != kat.digest {
			t.Fatalf("size=%d: VerifyAll digest %x (err=%v), recorded %s", kat.size, vd, err, kat.digest)
		}
	}
}

// TestSealedWriterBaseFailure fails the k-th write to the underlying file,
// inline and under the parallel pipeline: the error must surface, stick to
// every later call, leave nothing on disk past the chunks before k, withhold
// the digest, and Close must still join every worker.
func TestSealedWriterBaseFailure(t *testing.T) {
	const chunks = 10 // full one-block chunks; write #chunks is the final block
	payload := make([]byte, chunks*SealedBlockSize+100)
	rand.New(rand.NewSource(13)).Read(payload)
	s, _ := newTestSealer(t)
	want, _ := referenceSeal(s, payload)

	for _, workers := range []int{1, 4} {
		for _, k := range []int{0, 3, chunks} {
			before := runtime.NumGoroutine()
			mem := vfs.NewMem()
			ffs := vfs.NewFault(mem, 1)
			// Count 1: the file would accept later writes, so bytes past
			// chunk k could only come from a writer that kept going.
			ffs.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: "f", After: k, Count: 1})
			f, err := ffs.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			w := NewSealedWriter(f, s, SealedBlockSize, workers)
			_, err = w.Write(payload)
			if err == nil {
				err = w.Sync() // the pipeline may only reach write k while draining
			}
			if !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("workers=%d k=%d: Write+Sync err = %v, want the injected fault", workers, k, err)
			}
			if _, err := w.Write([]byte("more")); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("workers=%d k=%d: Write after failure: %v", workers, k, err)
			}
			if err := w.Sync(); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("workers=%d k=%d: Sync after failure: %v", workers, k, err)
			}
			if err := w.Close(); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("workers=%d k=%d: Close after failure: %v", workers, k, err)
			}
			if _, ok := w.FileDigest(); ok {
				t.Fatalf("workers=%d k=%d: digest reported for a failed file", workers, k)
			}
			got, _ := vfs.ReadFile(mem, "f")
			if !bytes.Equal(got, want[:k*sealedCipherBlock]) {
				t.Fatalf("workers=%d k=%d: %d bytes on disk, want exactly the %d chunks before the failure", workers, k, len(got), k)
			}
			// Close has waited for the workers; give their exits a moment
			// to be reflected in the count.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("workers=%d k=%d: %d goroutines before, %d after Close", workers, k, before, n)
			}
		}
	}
}

// FuzzSealedOpen feeds arbitrary bodies to the sealed reader: it must either
// reject them (typed as integrity errors for impossible layouts) or round
// genuine sealed data back — never panic, never return unauthenticated bytes
// as success.
func FuzzSealedOpen(f *testing.F) {
	dek := DEK{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	s, err := NewSealer(dek, []byte("fuzzpref"), []byte("hdr"))
	if err != nil {
		f.Fatal(err)
	}
	valid := s.SealBlock(nil, []byte("tail"), 0, true)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAA}, sealedCipherBlock+SealedTagSize))
	f.Fuzz(func(t *testing.T, body []byte) {
		fs := vfs.NewMem()
		if err := vfs.WriteFile(fs, "f", body); err != nil {
			t.Skip()
		}
		file, err := fs.Open("f")
		if err != nil {
			t.Skip()
		}
		defer file.Close()
		r, err := NewSealedReaderAt(file, s, 0)
		if err != nil {
			if !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("open rejected with non-integrity error: %v", err)
			}
			return
		}
		size, _ := r.Size()
		buf := make([]byte, size)
		if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
			if !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("read failed with non-integrity error: %v", err)
			}
		}
		if _, err := r.FileDigest(); err != nil && err != io.EOF {
			t.Fatalf("digest scan: %v", err)
		}
	})
}
