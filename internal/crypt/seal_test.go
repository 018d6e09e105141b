package crypt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
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
	cf, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	cd, err := TagChainDigest(cf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wd, cd) {
		t.Fatal("TagChainDigest != writer digest")
	}
	// And the reader's.
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
		plain := make([]byte, len(payload))
		n, err := r.ReadAt(plain, 0)
		if (err != nil && err != io.EOF) || n != len(payload) || !bytes.Equal(plain, payload) {
			t.Fatalf("size=%d: recorded body reads back %d bytes (err=%v), not the payload", kat.size, n, err)
		}
		d, err := r.FileDigest()
		r.Close()
		if err != nil || hex.EncodeToString(d) != kat.digest {
			t.Fatalf("size=%d: FileDigest %x (err=%v), recorded %s", kat.size, d, err, kat.digest)
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

// TestSealedWriterCloseMidPipeline closes a writer that has chunks in flight
// and a partial chunk accumulating, never having called Sync. The recycled
// jobs must all be accounted for before (at most 2*workers+1 of them, one
// inline) and released after, the workers must exit, and the bytes must be
// the reference body: which job carried which chunk leaves no trace.
func TestSealedWriterCloseMidPipeline(t *testing.T) {
	payload := make([]byte, 23*SealedBlockSize+1234)
	rand.New(rand.NewSource(19)).Read(payload)
	s, _ := newTestSealer(t)
	want, wantDigest := referenceSeal(s, payload)

	for _, workers := range []int{0, 1, 2, 4} {
		before := runtime.NumGoroutine()
		mem := vfs.NewMem()
		f, err := mem.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		w := NewSealedWriter(f, s, SealedBlockSize, workers)
		for p := payload; len(p) > 0; {
			n := min(len(p), 1000) // pieces that straddle chunk boundaries
			if _, err := w.Write(p[:n]); err != nil {
				t.Fatal(err)
			}
			p = p[n:]
		}
		jobs, bound := len(w.free)+len(w.order), 1
		if workers > 1 {
			bound = 2*workers + 1
		}
		if w.cur != nil {
			jobs++
		}
		if jobs > bound {
			t.Fatalf("workers=%d: %d chunk jobs alive after 23 chunks, want <= %d", workers, jobs, bound)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		if w.cur != nil || w.free != nil || w.order != nil {
			t.Fatalf("workers=%d: chunk buffers survive Close (cur=%v free=%d order=%d)", workers, w.cur != nil, len(w.free), len(w.order))
		}
		if got, _ := vfs.ReadFile(mem, "f"); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: body differs from the reference seal", workers)
		}
		if d, ok := w.FileDigest(); !ok || !bytes.Equal(d, wantDigest) {
			t.Fatalf("workers=%d: digest %x ok=%v, want %x", workers, d, ok, wantDigest)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines before, %d after Close", workers, before, n)
		}
	}
}

// oracleReadAt is the per-block read loop that SealedReaderAt.ReadAt used to
// be, kept as the reference the coalesced reader is held to: one block at a
// time, opened into a fresh buffer and copied out.
func oracleReadAt(s *Sealer, body, p []byte, off int64) (int, error) {
	full, plainSize, err := sealedBodyLayout(int64(len(body)))
	if err != nil {
		return 0, err
	}
	if off >= plainSize {
		return 0, io.EOF
	}
	n := 0
	for len(p) > 0 && off < plainSize {
		idx := off / SealedBlockSize
		coff := idx * sealedCipherBlock
		clen, _ := leadingBlock(int64(len(body)) - coff)
		plain, err := s.OpenBlock(nil, body[coff:coff+clen], uint32(idx), idx == full)
		if err != nil {
			return n, err
		}
		c := copy(p, plain[off-idx*SealedBlockSize:])
		n, p, off = n+c, p[c:], off+int64(c)
	}
	if len(p) > 0 {
		return n, io.EOF
	}
	return n, nil
}

// checkAgainstOracle reads (off, length) through r and through the oracle
// and requires the same count, error class and bytes; past n, p must hold
// nothing but what the caller put there (or zeros).
func checkAgainstOracle(t testing.TB, r *SealedReaderAt, s *Sealer, body []byte, off int64, length int) {
	t.Helper()
	if err := oracleMismatch(r, s, body, off, length); err != nil {
		t.Fatal(err)
	}
}

// oracleMismatch is checkAgainstOracle's comparison, returning what differs
// (nil if nothing) so that a goroutine other than the test's can report it.
func oracleMismatch(r *SealedReaderAt, s *Sealer, body []byte, off int64, length int) error {
	const fill = 0xEE
	got := bytes.Repeat([]byte{fill}, length)
	want := bytes.Repeat([]byte{fill}, length)
	gn, gerr := r.ReadAt(got, off)
	wn, werr := oracleReadAt(s, body, want, off)
	if gn != wn || (gerr == nil) != (werr == nil) || (gerr == io.EOF) != (werr == io.EOF) ||
		errors.Is(gerr, vfs.ErrIntegrity) != errors.Is(werr, vfs.ErrIntegrity) {
		return fmt.Errorf("body=%d off=%d len=%d: ReadAt = (%d, %v), oracle = (%d, %v)", len(body), off, length, gn, gerr, wn, werr)
	}
	if !bytes.Equal(got[:gn], want[:wn]) {
		return fmt.Errorf("body=%d off=%d len=%d: bytes differ from the oracle", len(body), off, length)
	}
	if err := untouchedPast(got, gn, fill); err != nil {
		return fmt.Errorf("body=%d off=%d len=%d: %w", len(body), off, length, err)
	}
	return nil
}

// untouchedPast reports a byte of p[n:] that is neither fill nor zero: bytes
// a failed or short read released past what it counted.
func untouchedPast(p []byte, n int, fill byte) error {
	for i, b := range p[n:] {
		if b != fill && b != 0 {
			return fmt.Errorf("p[%d] = %#x past n=%d (unreleased plaintext?)", n+i, b, n)
		}
	}
	return nil
}

// boundaryGrid returns every plaintext position within one byte of a block
// boundary or of the end of a size-byte body.
func boundaryGrid(size int) []int64 {
	var grid []int64
	for b := 0; b <= size+SealedBlockSize; b += SealedBlockSize {
		for _, v := range []int{b - 1, b, b + 1, size - 1, size, size + 1} {
			if v >= 0 && v <= size+1 {
				grid = append(grid, int64(v))
			}
		}
	}
	return grid
}

func TestSealedReadAtMatchesOracle(t *testing.T) {
	s, _ := newTestSealer(t)
	rng := rand.New(rand.NewSource(14))
	for _, size := range []int{0, 1, SealedBlockSize - 1, SealedBlockSize, SealedBlockSize + 1,
		2 * SealedBlockSize, 3*SealedBlockSize + 17, 64<<10 + 5} {
		payload := make([]byte, size)
		rng.Read(payload)
		body := sealToMem(t, s, payload)
		r, err := openSealed(t, s, body)
		if err != nil {
			t.Fatal(err)
		}
		grid := boundaryGrid(size)
		for _, off := range grid {
			checkAgainstOracle(t, r, s, body, off, 0)
			for _, end := range grid { // includes ends exactly at and one past plainSize
				if end > off {
					checkAgainstOracle(t, r, s, body, off, int(end-off))
				}
			}
		}
		r.Close()
	}
}

func TestSealedReadAtTamperMidExtent(t *testing.T) {
	s, _ := newTestSealer(t)
	const blocks = 5
	payload := make([]byte, blocks*SealedBlockSize+300)
	rand.New(rand.NewSource(15)).Read(payload)
	body := sealToMem(t, s, payload)

	// The read starts inside block 0 and ends inside the final block, so the
	// extent has a partial block at each end and whole blocks between.
	const off, length = 100, blocks*SealedBlockSize + 100
	for j := 0; j <= blocks; j++ {
		mut := append([]byte(nil), body...)
		mut[j*sealedCipherBlock+7] ^= 0x01
		r := mustOpenSealed(t, s, mut)
		p := bytes.Repeat([]byte{0xEE}, length)
		n, err := r.ReadAt(p, off)
		if !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("block %d flipped: err = %v, want an integrity error", j, err)
		}
		if want := max(0, j*SealedBlockSize-off); n != want {
			t.Fatalf("block %d flipped: n = %d, want the %d bytes of the blocks before it", j, n, want)
		}
		if !bytes.Equal(p[:n], payload[off:off+n]) {
			t.Fatalf("block %d flipped: verified prefix differs from the payload", j)
		}
		for i, b := range p[n:] {
			if b != 0xEE && b != 0 {
				t.Fatalf("block %d flipped: p[%d] = %#x, plaintext released past the failing block", j, n+i, b)
			}
		}
		checkAgainstOracle(t, r, s, mut, off, length)
	}
}

func mustOpenSealed(t testing.TB, s *Sealer, body []byte) *SealedReaderAt {
	t.Helper()
	r, err := openSealed(t, s, body)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestSealedReadAtInnerFault: a failing device is an I/O error. It must not
// read as tampering, or the engine would quarantine a healthy file.
func TestSealedReadAtInnerFault(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 3*SealedBlockSize)
	body := sealToMem(t, s, payload)
	ffs := vfs.NewFault(vfs.NewMem(), 1)
	if err := vfs.WriteFile(ffs, "f", body); err != nil {
		t.Fatal(err)
	}
	f, err := ffs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewSealedReaderAt(f, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(vfs.FaultRule{Op: vfs.FaultRead, Path: "f"})
	for name, read := range map[string]func() error{
		"ReadAt":     func() error { _, err := r.ReadAt(make([]byte, 2*SealedBlockSize), 10); return err },
		"FileDigest": func() error { _, err := r.FileDigest(); return err },
	} {
		if err := read(); !errors.Is(err, vfs.ErrInjected) || errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("%s over a failing file: err = %v, want the injected fault and no integrity class", name, err)
		}
	}
}

// shortFile returns at most limit bytes per ReadAt with a nil error: a
// transfer that came back short without saying why.
type shortFile struct {
	vfs.RandomAccessFile
	limit int
}

func (f shortFile) ReadAt(p []byte, off int64) (int, error) {
	return f.RandomAccessFile.ReadAt(p[:min(len(p), f.limit)], off)
}

func TestSealedReadAtShortInnerRead(t *testing.T) {
	s, _ := newTestSealer(t)
	body := sealToMem(t, s, make([]byte, 3*SealedBlockSize))
	r := mustOpenSealed(t, s, body)
	r.f = shortFile{r.f, sealedCipherBlock + 5}
	n, err := r.ReadAt(make([]byte, 2*SealedBlockSize), 0)
	if n != 0 || !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("short inner read: (%d, %v), want (0, unexpected EOF) and no integrity class", n, err)
	}
}

// TestSealedReadAtInnerReads pins the mechanism: whatever the span, one outer
// ReadAt is one inner ReadAt, and a digest walk is one per 64-block extent.
func TestSealedReadAtInnerReads(t *testing.T) {
	s, _ := newTestSealer(t)
	const blocks = 150
	payload := make([]byte, blocks*SealedBlockSize+99)
	rand.New(rand.NewSource(16)).Read(payload)
	cfs := vfs.NewCounting(vfs.NewMem())
	if err := vfs.WriteFile(cfs, "f", sealToMem(t, s, payload)); err != nil {
		t.Fatal(err)
	}
	f, err := cfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewSealedReaderAt(f, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	innerReads := func(fn func()) int64 {
		before := cfs.Stats.Snapshot().ReadOps
		fn()
		return cfs.Stats.Snapshot().ReadOps - before
	}
	for _, rd := range []struct{ off, n int }{
		{0, 1}, {0, SealedBlockSize}, {4000, 4200}, {SealedBlockSize - 1, 2},
		{3 * SealedBlockSize, 64 << 10}, {0, len(payload)}, {len(payload) - 5, 100},
	} {
		p := make([]byte, rd.n)
		if got := innerReads(func() { r.ReadAt(p, int64(rd.off)) }); got != 1 {
			t.Errorf("ReadAt(off=%d, len=%d): %d inner reads, want 1", rd.off, rd.n, got)
		}
		if end := min(rd.off+rd.n, len(payload)); !bytes.Equal(p[:end-rd.off], payload[rd.off:end]) {
			t.Errorf("ReadAt(off=%d, len=%d): wrong bytes", rd.off, rd.n)
		}
	}
	wantWalk := int64((blocks + 1 + digestExtentBlocks - 1) / digestExtentBlocks) // +1: the final block
	if got := innerReads(func() { r.FileDigest() }); got != wantWalk {
		t.Errorf("FileDigest over %d blocks: %d inner reads, want %d", blocks+1, got, wantWalk)
	}
}

// TestSealedReadAtConcurrent: the nonce/AAD scratch pool is the reader's
// only shared mutable state; eight goroutines reading overlapping spans must
// each see exactly the payload (run under -race).
func TestSealedReadAtConcurrent(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 40*SealedBlockSize+123)
	rand.New(rand.NewSource(17)).Read(payload)
	r := mustOpenSealed(t, s, sealToMem(t, s, payload))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				off := rng.Intn(len(payload))
				p := make([]byte, 1+rng.Intn(3*SealedBlockSize))
				n, err := r.ReadAt(p, int64(off))
				if err != nil && err != io.EOF {
					t.Errorf("ReadAt(off=%d, len=%d): %v", off, len(p), err)
					return
				}
				if !bytes.Equal(p[:n], payload[off:off+n]) {
					t.Errorf("ReadAt(off=%d, len=%d): bytes differ from the payload", off, len(p))
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// failFile fails every ReadAt with err.
type failFile struct {
	vfs.RandomAccessFile
	err error
}

func (f failFile) ReadAt([]byte, int64) (int, error) { return 0, f.err }

// TestSealedReadAtExtentIsPerCall: extentPool's buffers pass between readers
// over different files and DEKs, and between calls that succeed and calls
// that fail part way — on a tampered block, a short inner read, an inner
// error — each of which leaves its extent holding ciphertext or the
// plaintext of a partial block. Every call must still see only what it read
// and authenticated itself: the oracle's bytes, count and error class, and
// past n no byte of any call's plaintext. Run under -race: an extent shared
// by two calls in flight is a data race.
func TestSealedReadAtExtentIsPerCall(t *testing.T) {
	errInner := errors.New("inner read failed")
	spans := []struct {
		align, n int
		blocks   int // sealed blocks the span covers
	}{
		{0, SealedBlockSize, 1},                      // aligned 4 KiB
		{1500, SealedBlockSize, 2},                   // straddling 4 KiB
		{1500, 64 << 10, 64<<10/SealedBlockSize + 1}, // 64 KiB
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		rng := rand.New(rand.NewSource(int64(40 + g)))
		s, _ := newTestSealer(t) // a DEK of its own per goroutine
		payload := make([]byte, (20+3*g)*SealedBlockSize+97*g)
		rng.Read(payload)
		body := sealToMem(t, s, payload)
		good := mustOpenSealed(t, s, body)
		bad := 5 + g%3
		tampered := append([]byte(nil), body...)
		tampered[bad*sealedCipherBlock+11] ^= 0x40
		tamper := mustOpenSealed(t, s, tampered)
		// A limit of one tag: every extent of a non-empty read is longer.
		short := mustOpenSealed(t, s, body)
		short.f = shortFile{short.f, SealedTagSize}
		failing := mustOpenSealed(t, s, body)
		failing.f = failFile{failing.f, errInner}

		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				sp := spans[rng.Intn(len(spans))]
				off := int64(sp.align + rng.Intn(len(payload)/SealedBlockSize-sp.blocks)*SealedBlockSize)
				var err error
				switch i % 5 {
				case 0, 1:
					err = oracleMismatch(good, s, body, off, sp.n)
				case 2:
					// A span that covers the tampered block.
					k := max(0, bad-rng.Intn(sp.blocks))
					err = oracleMismatch(tamper, s, tampered, int64(sp.align+k*SealedBlockSize), sp.n)
				default:
					r, want := short, io.ErrUnexpectedEOF
					if i%5 == 4 {
						r, want = failing, errInner
					}
					p := bytes.Repeat([]byte{0xEE}, sp.n)
					n, rerr := r.ReadAt(p, off)
					if n != 0 || !errors.Is(rerr, want) || errors.Is(rerr, vfs.ErrIntegrity) {
						err = fmt.Errorf("off=%d len=%d: ReadAt = (%d, %v), want (0, %v) and no integrity class", off, sp.n, n, rerr, want)
					} else {
						err = untouchedPast(p, 0, 0xEE)
					}
				}
				if err != nil {
					t.Errorf("goroutine %d, call %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
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

// FuzzSealedReadAt tampers a genuinely sealed body (mask XORed in, cycled)
// and reads an arbitrary span: the coalesced reader must agree with the
// per-block oracle or fail with an integrity error — never panic, never hand
// back bytes the oracle would not.
func FuzzSealedReadAt(f *testing.F) {
	dek := DEK{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	s, err := NewSealer(dek, []byte("fuzzpref"), []byte("hdr"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("tail"), []byte{}, int64(0), 4)
	f.Add(bytes.Repeat([]byte{7}, 2*SealedBlockSize+9), []byte{}, int64(SealedBlockSize-1), 2*SealedBlockSize)
	f.Add(bytes.Repeat([]byte{9}, 2*SealedBlockSize), append(make([]byte, sealedCipherBlock+3), 0x10), int64(10), 2*SealedBlockSize)
	f.Fuzz(func(t *testing.T, payload, mask []byte, off int64, length int) {
		if len(payload) > 16*SealedBlockSize || length < 0 || length > 17*SealedBlockSize || off < 0 {
			t.Skip() // a handful of blocks reaches every case; larger only slows the fuzzer
		}
		body, _ := referenceSeal(s, payload)
		for i := 0; len(mask) > 0 && i < len(body); i++ {
			body[i] ^= mask[i%len(mask)]
		}
		r, err := openSealed(t, s, body)
		if err != nil {
			t.Fatalf("open of a correctly sized body: %v", err)
		}
		defer r.Close()
		checkAgainstOracle(t, r, s, body, off, length)
	})
}
