package crypt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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

// piece is the Write size sealToMem and sealWith use: records of 3000 bytes,
// so reads straddle record boundaries at offsets that are not 4 KiB
// multiples.
const piece = 3000

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

// sealToMem writes payload through a default SealedWriter in piece-byte
// Writes and returns the raw body.
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

func mustOpenSealed(t testing.TB, s *Sealer, body []byte) *SealedReaderAt {
	t.Helper()
	r, err := openSealed(t, s, body)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// pieces splits payload into the Writes sealWith issues.
func pieces(payload []byte, size int) [][]byte {
	var out [][]byte
	for off := 0; off < len(payload); off += size {
		out = append(out, payload[off:min(off+size, len(payload))])
	}
	return out
}

// referenceSeal is the format definition the writer is held to: each write
// sealed as records of at most SealedRecordMax bytes in index order, then
// the length table in the clear with its tag, and the count; the digest
// hashes each record's tag and then the table's.
func referenceSeal(s *Sealer, writes [][]byte) (body, digest []byte) {
	h := sha256.New()
	var table []byte
	idx := uint32(0)
	for _, w := range writes {
		for len(w) > 0 {
			n := min(len(w), SealedRecordMax)
			body = s.SealBlock(body, w[:n], idx, false)
			h.Write(body[len(body)-SealedTagSize:])
			table = binary.LittleEndian.AppendUint32(table, uint32(n))
			w = w[n:]
			idx++
		}
	}
	body = append(body, table...)
	body = s.tableTag(body, table, idx)
	h.Write(body[len(body)-SealedTagSize:])
	return binary.LittleEndian.AppendUint32(body, idx), h.Sum(nil)
}

// oracleParse reads a v3 body the slow way, from nothing but the format
// definition: the count, the table checked under index count, and each
// record's sealed bytes located by summing lengths.
func oracleParse(s *Sealer, body []byte) (records [][]byte, err error) {
	if len(body) < sealedCountLen {
		return nil, errSealTruncated
	}
	n := int(binary.LittleEndian.Uint32(body[len(body)-sealedCountLen:]))
	tableOff := len(body) - sealedCountLen - 4*n - SealedTagSize
	if n > len(body) || tableOff < 0 {
		return nil, errSealTruncated
	}
	table := body[tableOff : tableOff+4*n]
	if err := s.checkTable(table, body[tableOff+4*n:len(body)-sealedCountLen], uint32(n)); err != nil {
		return nil, err
	}
	off := 0
	for k := 0; k < n; k++ {
		l := int(binary.LittleEndian.Uint32(table[4*k:]))
		if l == 0 || off+l+SealedTagSize > tableOff {
			return nil, errSealTruncated
		}
		records = append(records, body[off:off+l+SealedTagSize])
		off += l + SealedTagSize
	}
	if off != tableOff {
		return nil, errSealTruncated
	}
	return records, nil
}

// oracleReadAt is a per-record read loop over oracleParse: one record at a
// time, opened into a fresh buffer and copied out.
func oracleReadAt(s *Sealer, body, p []byte, off int64) (int, error) {
	records, err := oracleParse(s, body)
	if err != nil {
		return 0, err
	}
	size := int64(0)
	for _, rec := range records {
		size += int64(len(rec) - SealedTagSize)
	}
	if off >= size {
		return 0, io.EOF
	}
	n, base := 0, int64(0)
	for k, rec := range records {
		plainLen := int64(len(rec) - SealedTagSize)
		if len(p) > 0 && off < base+plainLen {
			plain, err := s.OpenBlock(nil, rec, uint32(k), false)
			if err != nil {
				return n, err
			}
			c := copy(p, plain[off-base:])
			n, p, off = n+c, p[c:], off+int64(c)
		}
		base += plainLen
	}
	if len(p) > 0 {
		return n, io.EOF
	}
	return n, nil
}

// writerMatrix is every (workers, chunkSize) the one writer is checked at:
// inline and parallel, one record per chunk up to the production default.
func writerMatrix(fn func(workers, chunk int)) {
	for _, workers := range []int{0, 1, 2, 4} {
		for _, chunk := range []int{1, 4096, 2 * 4096, 64 << 10} {
			fn(workers, chunk)
		}
	}
}

// sealWith writes payload through NewSealedWriter(chunk, workers) in
// piece-byte Writes and returns the body and digest.
func sealWith(t testing.TB, s *Sealer, payload []byte, chunk, workers int) (body, digest []byte) {
	t.Helper()
	fs := vfs.NewMem()
	f, _ := fs.Create("f")
	w := NewSealedWriter(f, s, chunk, workers)
	for _, p := range pieces(payload, piece) {
		if _, err := w.Write(p); err != nil {
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

func TestSealedRoundTripSizes(t *testing.T) {
	s, _ := newTestSealer(t)
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, piece - 1, piece, piece + 1, 3 * piece, 3*piece + 37, 100 << 10} {
		payload := make([]byte, size)
		rng.Read(payload)
		body := sealToMem(t, s, payload)

		// The layout: the plaintext, a tag per record, the table (4 bytes
		// per record and its tag) and the count.
		records := (size + piece - 1) / piece
		if wantLen := size + records*(SealedTagSize+4) + SealedTagSize + sealedCountLen; len(body) != wantLen {
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

// readAll opens body and reads all of it: the error of whichever step
// failed first.
func readAll(t testing.TB, s *Sealer, body []byte) ([]byte, error) {
	r, err := openSealed(t, s, body)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	size, _ := r.Size()
	got := make([]byte, size)
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return got, nil
}

func TestSealedTamperEveryRegionDetected(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*piece+100)
	rand.New(rand.NewSource(8)).Read(payload)
	body := sealToMem(t, s, payload)

	// Flip one bit at a sample of positions covering every record, the
	// table and the count, ciphertext and tag bytes; each must surface as
	// vfs.ErrIntegrity from the open or from the read covering it, never as
	// silently different plaintext.
	for pos := 0; pos < len(body); pos += 97 {
		mut := append([]byte(nil), body...)
		mut[pos] ^= 0x40
		if _, err := readAll(t, s, mut); !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("pos %d: tamper not detected (err=%v)", pos, err)
		}
	}
}

func TestSealedTruncationDetected(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*piece+100)
	rand.New(rand.NewSource(9)).Read(payload)
	body := sealToMem(t, s, payload)
	tableLen := 3*4 + SealedTagSize + sealedCountLen

	cuts := []int{
		len(body) - 1,                  // inside the count
		len(body) - sealedCountLen,     // the count cut off
		len(body) - tableLen,           // at a record boundary: no table
		piece + SealedTagSize,          // after one record
		len(body) - tableLen - 50,      // inside the last record
		SealedTagSize + sealedCountLen, // the size of an empty body
		SealedTagSize + sealedCountLen - 1,
		0,
	}
	for _, cut := range cuts {
		if _, err := readAll(t, s, body[:cut]); !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("cut %d: truncation not detected (err=%v)", cut, err)
		}
	}
}

// TestSealedBlockSpliceDetected moves whole records (one per SST block):
// two swapped within a file, one spliced in from another file under the
// same DEK, another file's length table spliced in, the last record dropped,
// and a changed count. Every one is an integrity error at the open or at
// the first read of the record.
func TestSealedBlockSpliceDetected(t *testing.T) {
	dek, err := NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSealer(dek, []byte("prefix-a"), []byte("header-a"))
	other, _ := NewSealer(dek, []byte("prefix-b"), []byte("header-b"))
	payload := make([]byte, 4*piece)
	rand.New(rand.NewSource(10)).Read(payload)
	body := sealToMem(t, s, payload)
	otherBody := sealToMem(t, other, payload)
	rec := piece + SealedTagSize

	swapped := append([]byte(nil), body...)
	copy(swapped[0:rec], body[rec:2*rec])
	copy(swapped[rec:2*rec], body[0:rec])

	spliced := append([]byte(nil), body...)
	copy(spliced[rec:2*rec], otherBody[rec:2*rec])

	splicedTable := append(append([]byte(nil), body[:4*rec]...), otherBody[4*rec:]...)

	recount := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(recount[len(recount)-sealedCountLen:], 3)

	for name, mut := range map[string][]byte{
		"swap":          swapped,
		"splice":        spliced,
		"foreign table": splicedTable,
		"count":         recount,
		"drop last":     append(append([]byte(nil), body[:3*rec]...), body[4*rec:]...),
	} {
		if _, err := readAll(t, s, mut); !errors.Is(err, vfs.ErrIntegrity) {
			t.Errorf("%s: not detected (err=%v)", name, err)
		}
	}
}

func TestTagChainDigestMatchesWriterAndReader(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*piece+55)
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
	if _, want := referenceSeal(s, [][]byte{payload}); !bytes.Equal(wd, want) {
		t.Fatal("writer digest != reference tag chain")
	}
	// Keyless digest over the ciphertext must match the writer's.
	cf, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if cd, err := TagChainDigest(cf, 0); err != nil || !bytes.Equal(wd, cd) {
		t.Fatalf("TagChainDigest != writer digest (err=%v)", err)
	}
	body, _ := vfs.ReadFile(fs, "f")
	r := mustOpenSealed(t, s, body)
	rd, err := r.FileDigest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wd, rd) {
		t.Fatal("reader FileDigest != writer digest")
	}
}

func TestChunkedSealedWriterMatchesSerial(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 5*4096+1234)
	rand.New(rand.NewSource(12)).Read(payload)
	want, wantDigest := referenceSeal(s, pieces(payload, piece))

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

// TestSealedWriterSplitsLongWrites: a Write above SealedRecordMax seals as
// records of SealedRecordMax and a shorter last one; an empty Write seals
// nothing.
func TestSealedWriterSplitsLongWrites(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 3*SealedRecordMax+5)
	rand.New(rand.NewSource(20)).Read(payload)
	fs := vfs.NewMem()
	f, _ := fs.Create("f")
	w := NewSealedWriter(f, s, 0, 0)
	for _, p := range [][]byte{nil, payload, {}} {
		if n, err := w.Write(p); n != len(p) || err != nil {
			t.Fatalf("Write(%d bytes) = (%d, %v)", len(p), n, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	body, _ := vfs.ReadFile(fs, "f")
	if want, _ := referenceSeal(s, [][]byte{payload}); !bytes.Equal(body, want) {
		t.Fatal("body differs from the reference seal")
	}
	if n := binary.LittleEndian.Uint32(body[len(body)-sealedCountLen:]); n != 4 {
		t.Fatalf("%d records, want 4", n)
	}
}

// TestSealedWriterKnownAnswer pins the on-disk format across commits: the
// expected hashes were recorded from the writer that introduced format v3,
// so a match here means files written then and now are the same bytes.
func TestSealedWriterKnownAnswer(t *testing.T) {
	dek := DEK{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	s, err := NewSealer(dek, []byte("KATnonce"), []byte("shield-kat-header-v3"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kat := range []struct {
		size         int
		body, digest string // sha256 of the sealed body; tag-chain digest
	}{
		{0, "82cbe133df6a2878d909dcc8cd76e4f784734d557c0af28255bd9cdfc27d7f78", "d760d0dee4e7a24e6776d7ac74533ea01d5537902d2d4c48335ee5ab906bce3a"},
		{1234, "7cecc0394495c111f8bbf7e8ad422e8a5c937c4b2809779bc4483c303b793e99", "5e4461cde79d39e927fad3eaffab714a92aef0ddcc2a694018e2d74592e34766"},
		{4096, "30ee6845d890f3e956c1d9101a7f7943f849985f552e8fe483609692a590f3f5", "bac4cb97a8fef90ed97fbf9c14708a7f618d9782dbe29640500d16b04591efcf"},
		{5*4096 + 1234, "bc05021700eff3b54c7d367a37a4d730bcf80f48d0a649d193abb45c8bae5d07", "05a360c8fbc33d2d2fda89b44d0a1ef32d5f5c376086a2cedea702a06ae77117"},
		{128 << 10, "46f2bb1c6d9da397458ff119261e80ecde16eeec7cf445ffb07a62b39eb8a38f", "c006cf8c3a3b314e80de6c94ce6491ddb897132f1c891f7ad415cf5e04f5e3ef"},
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
		body, _ := referenceSeal(s, pieces(payload, piece))
		r := mustOpenSealed(t, s, body)
		plain := make([]byte, len(payload))
		n, err := r.ReadAt(plain, 0)
		if (err != nil && err != io.EOF) || n != len(payload) || !bytes.Equal(plain, payload) {
			t.Fatalf("size=%d: recorded body reads back %d bytes (err=%v), not the payload", kat.size, n, err)
		}
		d, err := r.FileDigest()
		if err != nil || hex.EncodeToString(d) != kat.digest {
			t.Fatalf("size=%d: FileDigest %x (err=%v), recorded %s", kat.size, d, err, kat.digest)
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to before.
func waitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%s: %d goroutines before, %d after Close", what, before, n)
	}
}

// TestSealedWriterBaseFailure fails the k-th write to the underlying file,
// inline and under the parallel pipeline: the error must surface, stick to
// every later call, leave nothing on disk past the chunks before k, withhold
// the digest, and Close must still join every worker.
func TestSealedWriterBaseFailure(t *testing.T) {
	const chunks = 10 // one 4 KiB record per chunk; write #chunks is the table
	payload := make([]byte, chunks*4096)
	rand.New(rand.NewSource(13)).Read(payload)
	s, _ := newTestSealer(t)
	want, _ := referenceSeal(s, pieces(payload, 4096))

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
			w := NewSealedWriter(f, s, 4096, workers)
			for _, p := range pieces(payload, 4096) {
				if _, err = w.Write(p); err != nil {
					break
				}
			}
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
			if !bytes.Equal(got, want[:k*(4096+SealedTagSize)]) {
				t.Fatalf("workers=%d k=%d: %d bytes on disk, want exactly the %d chunks before the failure", workers, k, len(got), k)
			}
			waitGoroutines(t, before, fmt.Sprintf("workers=%d k=%d", workers, k))
		}
	}
}

// TestSealedWriterCloseMidPipeline closes a writer that has chunks in flight
// and a partial chunk accumulating, never having called Sync. The recycled
// jobs must all be accounted for before (at most 2*workers+1 of them, one
// inline) and released after, the workers must exit, and the bytes must be
// the reference body: which job carried which chunk leaves no trace.
func TestSealedWriterCloseMidPipeline(t *testing.T) {
	payload := make([]byte, 23*4096+1234)
	rand.New(rand.NewSource(19)).Read(payload)
	s, _ := newTestSealer(t)
	want, wantDigest := referenceSeal(s, pieces(payload, 1000))

	for _, workers := range []int{0, 1, 2, 4} {
		before := runtime.NumGoroutine()
		mem := vfs.NewMem()
		f, err := mem.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		w := NewSealedWriter(f, s, 4096, workers)
		for _, p := range pieces(payload, 1000) { // records that straddle chunk boundaries
			if _, err := w.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		jobs, bound := len(w.free)+len(w.order), 1
		if workers > 1 {
			bound = 2*workers + 1
		}
		if w.cur != nil {
			jobs++
		}
		if jobs > bound {
			t.Fatalf("workers=%d: %d chunk jobs alive, want <= %d", workers, jobs, bound)
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
		waitGoroutines(t, before, fmt.Sprintf("workers=%d", workers))
	}
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

// boundaryGrid returns every plaintext position within one byte of a record
// boundary or of the end of a size-byte body.
func boundaryGrid(size int) []int64 {
	var grid []int64
	for b := 0; b <= size+piece; b += piece {
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
	for _, size := range []int{0, 1, piece - 1, piece, piece + 1, 2 * piece, 3*piece + 17, 20*piece + 5} {
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
			for _, end := range grid { // includes ends exactly at and one past the size
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
	const records = 5
	payload := make([]byte, records*piece+300)
	rand.New(rand.NewSource(15)).Read(payload)
	body := sealToMem(t, s, payload)

	// The read starts inside record 0 and ends inside the last record, so
	// the extent has a partial record at each end and whole records between.
	const off, length = 100, records*piece + 100
	for j := 0; j <= records; j++ {
		mut := append([]byte(nil), body...)
		mut[j*(piece+SealedTagSize)+7] ^= 0x01
		r := mustOpenSealed(t, s, mut)
		p := bytes.Repeat([]byte{0xEE}, length)
		n, err := r.ReadAt(p, off)
		if !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("record %d flipped: err = %v, want an integrity error", j, err)
		}
		if want := max(0, j*piece-off); n != want {
			t.Fatalf("record %d flipped: n = %d, want the %d bytes of the records before it", j, n, want)
		}
		if !bytes.Equal(p[:n], payload[off:off+n]) {
			t.Fatalf("record %d flipped: verified prefix differs from the payload", j)
		}
		if err := untouchedPast(p, n, 0xEE); err != nil {
			t.Fatalf("record %d flipped: %v", j, err)
		}
		checkAgainstOracle(t, r, s, mut, off, length)
	}
}

// TestSealedReadAtInnerFault: a failing device is an I/O error. It must not
// read as tampering, or the engine would quarantine a healthy file.
func TestSealedReadAtInnerFault(t *testing.T) {
	s, _ := newTestSealer(t)
	body := sealToMem(t, s, make([]byte, 3*piece))
	ffs := vfs.NewFault(vfs.NewMem(), 1)
	if err := vfs.WriteFile(ffs, "f", body); err != nil {
		t.Fatal(err)
	}
	f, err := ffs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ffs.Inject(vfs.FaultRule{Op: vfs.FaultRead, Path: "f"})
	if _, err := NewSealedReaderAt(f, s, 0); !errors.Is(err, vfs.ErrInjected) || errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("open over a failing file: err = %v, want the injected fault and no integrity class", err)
	}
	r := mustOpenSealed(t, s, body)
	r.f = failFile{r.f, vfs.ErrInjected}
	r.tail.Store(nil)
	for name, read := range map[string]func() error{
		"ReadAt":     func() error { _, err := r.ReadAt(make([]byte, 2*piece), 10); return err },
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

// failFile fails every ReadAt with err.
type failFile struct {
	vfs.RandomAccessFile
	err error
}

func (f failFile) ReadAt([]byte, int64) (int, error) { return 0, f.err }

func TestSealedReadAtShortInnerRead(t *testing.T) {
	s, _ := newTestSealer(t)
	body := sealToMem(t, s, make([]byte, 3*piece))
	r := mustOpenSealed(t, s, body)
	r.f = shortFile{r.f, piece + 5}
	r.tail.Store(nil)
	n, err := r.ReadAt(make([]byte, 2*piece), 0)
	if n != 0 || !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("short inner read: (%d, %v), want (0, unexpected EOF) and no integrity class", n, err)
	}
}

// sizedFile reports size as its length, whatever it holds: a storage node
// that lies about a file's size.
type sizedFile struct {
	vfs.RandomAccessFile
	size int64
}

func (f sizedFile) Size() (int64, error) { return f.size, nil }

// TestSealedOpenLyingSize: the open sizes its reads from the file's size, so
// a size no writer can produce is refused as a truncated body, and a size
// under that bound but past the bytes the file holds fails the open's read
// without the reader allocating what the size claims.
func TestSealedOpenLyingSize(t *testing.T) {
	s, _ := newTestSealer(t)
	body := sealToMem(t, s, make([]byte, 3*piece))
	for _, c := range []struct {
		size      int64
		integrity bool
	}{
		{1 << 62, true},
		{sealedMaxSize + 1, true},
		{sealedMaxSize, false},
		{64 << 30, false},
	} {
		fs := vfs.NewMem()
		if err := vfs.WriteFile(fs, "f", body); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = NewSealedReaderAt(sizedFile{f, c.size}, s, 0)
		runtime.ReadMemStats(&after)
		f.Close()
		if err == nil || errors.Is(err, vfs.ErrIntegrity) != c.integrity {
			t.Errorf("size %d: err = %v, want an error with integrity class %v", c.size, err, c.integrity)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*growChunk {
			t.Errorf("size %d: the open allocated %d bytes, want at most %d", c.size, got, 2*growChunk)
		}
	}
}

// countedSealed seals payload in writes of size bytes into a counting memfs
// and opens it: the reader, and a function that counts the inner reads fn
// makes.
func countedSealed(t *testing.T, s *Sealer, payload []byte, size int) (*SealedReaderAt, func(fn func()) int64) {
	t.Helper()
	body, _ := referenceSeal(s, pieces(payload, size))
	cfs := vfs.NewCounting(vfs.NewMem())
	if err := vfs.WriteFile(cfs, "f", body); err != nil {
		t.Fatal(err)
	}
	f, err := cfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	innerReads := func(fn func()) int64 {
		before := cfs.Stats.Snapshot().ReadOps
		fn()
		return cfs.Stats.Snapshot().ReadOps - before
	}
	var r *SealedReaderAt
	if n := innerReads(func() { r, err = NewSealedReaderAt(f, s, 0) }); err != nil || n != 1 {
		t.Fatalf("open: %d inner reads (err=%v), want 1", n, err)
	}
	t.Cleanup(func() { r.Close() })
	return r, innerReads
}

// TestSealedReadAtInnerReads pins the mechanism: the open is one inner read,
// whatever the span one outer ReadAt is at most one inner ReadAt (none for
// a span the open's tail holds whole), a whole-record read is one inner read of
// exactly the record and its tag, and a digest walk is one per 256 KiB.
func TestSealedReadAtInnerReads(t *testing.T) {
	s, _ := newTestSealer(t)
	const records = 150
	payload := make([]byte, records*4096+99)
	rand.New(rand.NewSource(16)).Read(payload)
	r, innerReads := countedSealed(t, s, payload, 4096)
	last := int(r.plainStart(records))
	tail := r.tail.Load()
	if tail == nil || tail.off > int64(records*(4096+SealedTagSize)) {
		t.Fatal("the open kept no tail holding the last record")
	}
	for _, rd := range []struct {
		off, n int
		want   int64
	}{
		{last, len(payload) - last, 0}, // inside the tail
		{len(payload) - 5, 100, 0},
		{last - 10, 20, 1}, // starts before the tail: all of it from storage, which drops the tail
		{len(payload) - 5, 100, 1},
		{last, len(payload) - last, 1},
		{0, 4096, 1}, {4000, 4200, 1}, {4095, 2, 1},
		{3 * 4096, 64 << 10, 1}, {0, len(payload), 1},
	} {
		p := make([]byte, rd.n)
		if got := innerReads(func() { r.ReadAt(p, int64(rd.off)) }); got != rd.want {
			t.Errorf("ReadAt(off=%d, len=%d): %d inner reads, want %d", rd.off, rd.n, got, rd.want)
		}
		if end := min(rd.off+rd.n, len(payload)); !bytes.Equal(p[:end-rd.off], payload[rd.off:end]) {
			t.Errorf("ReadAt(off=%d, len=%d): wrong bytes", rd.off, rd.n)
		}
	}
	body := int64(len(payload) + (records+1)*SealedTagSize)
	wantWalk := (body + digestExtent - 1) / digestExtent
	if got := innerReads(func() { r.FileDigest() }); got != wantWalk {
		t.Errorf("FileDigest over %d bytes: %d inner reads, want %d", body, got, wantWalk)
	}
}

// byteCountingFile counts the bytes its ReadAt calls asked for.
type byteCountingFile struct {
	vfs.RandomAccessFile
	bytes int64
}

func (f *byteCountingFile) ReadAt(p []byte, off int64) (int, error) {
	f.bytes += int64(len(p))
	return f.RandomAccessFile.ReadAt(p, off)
}

// TestSealedWholeRecordReadsItsRecord: a read of exactly one record fetches
// that record and its tag, nothing more.
func TestSealedWholeRecordReadsItsRecord(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 40*4096)
	rand.New(rand.NewSource(22)).Read(payload)
	r := mustOpenSealed(t, s, sealToMem(t, s, payload))
	bf := &byteCountingFile{RandomAccessFile: r.f}
	r.f = bf
	for k := int64(0); k < 10; k++ {
		p := make([]byte, piece)
		before := bf.bytes
		if _, err := r.ReadAt(p, k*piece); err != nil {
			t.Fatal(err)
		}
		if got := bf.bytes - before; got != piece+SealedTagSize {
			t.Fatalf("record %d: read %d inner bytes, want %d", k, got, piece+SealedTagSize)
		}
	}
}

// TestSealedOpenSmallRecords: records too small for the open's first guess
// cost it one more read, of the table alone, and read back intact.
func TestSealedOpenSmallRecords(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 6000)
	rand.New(rand.NewSource(23)).Read(payload)
	body, _ := referenceSeal(s, pieces(payload, 1))
	cfs := vfs.NewCounting(vfs.NewMem())
	if err := vfs.WriteFile(cfs, "f", body); err != nil {
		t.Fatal(err)
	}
	f, _ := cfs.Open("f")
	r, err := NewSealedReaderAt(f, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := cfs.Stats.Snapshot().ReadOps; n != 2 {
		t.Errorf("open: %d inner reads, want 2", n)
	}
	got := make([]byte, len(payload))
	if _, err := r.ReadAt(got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back: %v", err)
	}
}

// TestSealedReadAtConcurrent: eight goroutines reading overlapping spans,
// the first of them racing to drop the tail, must each see exactly the
// payload (run under -race).
func TestSealedReadAtConcurrent(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 40*4096+123)
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
				if i < 10 {
					off = len(payload) - 1 - rng.Intn(2*piece)
				}
				p := make([]byte, 1+rng.Intn(3*piece))
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

// TestSealedReadAtExtentIsPerCall: extentPool's buffers pass between readers
// over different files and DEKs, and between calls that succeed and calls
// that fail part way — on a tampered record, a short inner read, an inner
// error — each of which leaves its extent holding ciphertext or the
// plaintext of a partial record. Every call must still see only what it read
// and authenticated itself: the oracle's bytes, count and error class, and
// past n no byte of any call's plaintext. Run under -race: an extent shared
// by two calls in flight is a data race.
func TestSealedReadAtExtentIsPerCall(t *testing.T) {
	errInner := errors.New("inner read failed")
	spans := []struct {
		align, n int
		records  int // records the span covers
	}{
		{0, piece, 1},                      // one whole record
		{1500, piece, 2},                   // straddling two
		{1500, 64 << 10, 64<<10/piece + 2}, // 64 KiB
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		rng := rand.New(rand.NewSource(int64(40 + g)))
		s, _ := newTestSealer(t) // a DEK of its own per goroutine
		payload := make([]byte, (30+3*g)*piece+97*g)
		rng.Read(payload)
		body := sealToMem(t, s, payload)
		good := mustOpenSealed(t, s, body)
		bad := 5 + g%3
		tampered := append([]byte(nil), body...)
		tampered[bad*(piece+SealedTagSize)+11] ^= 0x40
		tamper := mustOpenSealed(t, s, tampered)
		// A limit of one tag: every extent of a non-empty read is longer.
		short := mustOpenSealed(t, s, body)
		short.f = shortFile{short.f, SealedTagSize}
		short.tail.Store(nil)
		failing := mustOpenSealed(t, s, body)
		failing.f = failFile{failing.f, errInner}
		failing.tail.Store(nil)

		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				sp := spans[rng.Intn(len(spans))]
				off := int64(sp.align + rng.Intn(len(payload)/piece-sp.records)*piece)
				var err error
				switch i % 5 {
				case 0, 1:
					err = oracleMismatch(good, s, body, off, sp.n)
				case 2:
					// A span that covers the tampered record.
					k := max(0, bad-rng.Intn(sp.records))
					err = oracleMismatch(tamper, s, tampered, int64(sp.align+k*piece), sp.n)
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
// reject them (typed as integrity errors) or read them back — never panic,
// never return unauthenticated bytes as success.
func FuzzSealedOpen(f *testing.F) {
	dek := DEK{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	s, err := NewSealer(dek, []byte("fuzzpref"), []byte("hdr"))
	if err != nil {
		f.Fatal(err)
	}
	valid, _ := referenceSeal(s, [][]byte{[]byte("tail")})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAA}, 4096+SealedTagSize))
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

// FuzzSealedReadAt seals payload in writes of 1 + size%5000 bytes, mutates
// the body (mask XORed in, cycled; a cut of cut%len bytes off the end) and
// reads an arbitrary span. The oracle is the written plaintext: the open
// either fails with an integrity error or succeeds, and every read then
// returns the payload's bytes at off or an integrity error — a mutated file
// never yields a byte that was not written there, whatever else it does —
// and agrees with the per-record reference reader.
func FuzzSealedReadAt(f *testing.F) {
	dek := DEK{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	s, err := NewSealer(dek, []byte("fuzzpref"), []byte("hdr"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("tail"), 4096, []byte{}, 0, int64(0), 4)
	f.Add(bytes.Repeat([]byte{7}, 2*4096+9), 4095, []byte{}, 0, int64(4095), 2*4096)
	f.Add(bytes.Repeat([]byte{9}, 2*4096), 4096, append(make([]byte, 4096+SealedTagSize+3), 0x10), 0, int64(10), 2*4096)
	f.Add(bytes.Repeat([]byte{5}, 3*4096), 4096, []byte{}, 4+4*3+SealedTagSize, int64(0), 3*4096)
	f.Fuzz(func(t *testing.T, payload []byte, size int, mask []byte, cut int, off int64, length int) {
		if len(payload) > 16*4096 || length < 0 || length > 17*4096 || off < 0 || size < 0 || cut < 0 {
			t.Skip() // a handful of records reaches every case; larger only slows the fuzzer
		}
		body, _ := referenceSeal(s, pieces(payload, 1+size%5000))
		for i := 0; len(mask) > 0 && i < len(body); i++ {
			body[i] ^= mask[i%len(mask)]
		}
		body = body[:len(body)-cut%(len(body)+1)]
		r, err := openSealed(t, s, body)
		if err != nil {
			if !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("open: %v, want an integrity error", err)
			}
			return
		}
		defer r.Close()
		p := make([]byte, length)
		n, err := r.ReadAt(p, off)
		if err != nil && err != io.EOF && !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("ReadAt: %v", err)
		}
		if n > 0 && (off+int64(n) > int64(len(payload)) || !bytes.Equal(p[:n], payload[off:off+int64(n)])) {
			t.Fatalf("ReadAt(off=%d, len=%d) = %d bytes that are not the payload's (err=%v)", off, length, n, err)
		}
		checkAgainstOracle(t, r, s, body, off, length)
	})
}
