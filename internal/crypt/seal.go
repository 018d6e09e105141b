package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"shield/internal/vfs"
)

// Sealed file format (format v3): the body of every write-once file.
//
// CTR mode (format v1) gives confidentiality only: a storage adversary can
// flip ciphertext bits and the engine decrypts them to attacker-chosen
// plaintext deltas. Format v3 seals the body as a run of AES-GCM records,
// one per Write call of the file's writer:
//
//	body     = record_0 ... record_{n-1} table count
//	record_k = AES-GCM(plaintext of the k-th Write) ‖ tag(16)
//	table    = len_0 ... len_{n-1} ‖ tag(16), each length a little-endian uint32
//	count    = n, a little-endian uint32
//
// An SST writes each block (data, filter, index, properties, footer) with
// one Write, so each block is exactly one record and a block read is one
// storage read of the block plus its tag and one GCM open. A Write above
// SealedRecordMax splits into several records. Records are contiguous: no
// padding, so the body is the plaintext plus 20 bytes per record and 20 for
// the table's tag and the count.
//
// Record k is sealed under the nonce prefix ‖ uint32 k (the prefix is 8
// random bytes per file) with AAD header ‖ uint32 k ‖ 0. The table's
// lengths are in the clear, authenticated by a GCM tag over no plaintext
// under prefix ‖ uint32 n with AAD header ‖ uint32 n ‖ 1 ‖ the lengths. The
// plaintext header names the DEK, the format version and the nonce prefix.
// Consequences:
//
//   - any changed ciphertext byte fails its record's tag → vfs.ErrIntegrity;
//   - a record cannot move within a file (its index is in nonce and AAD) or
//     be spliced in from another file (the header, with its random prefix,
//     is in every AAD);
//   - a changed length fails the table's tag, and the count is the table's
//     own index: a changed count places the table elsewhere and checks it
//     under another nonce;
//   - a cut anywhere, a record boundary included, leaves no table at the
//     end: the open fails as a truncation or an integrity error;
//   - a header rewritten to another version changes every record's AAD;
//   - the chain of record tags and the table's tag hashes into a 32-byte
//     file digest that the manifest records, so replacing a whole file with
//     an older validly sealed version of itself is caught against the
//     (trusted) manifest. Count, lengths and tags sit where the layout puts
//     them, so the digest needs no key (TagChainDigest).
//
// A storage node learns each record's size — each SST block's — which
// every read of the block tells it anyway, and nothing of its content.
// The reader keeps the table's prefix sums (4 bytes per record) and maps a
// plaintext offset to its records by binary search: handles above the file
// layer stay in plaintext coordinates.
const (
	// SealedRecordMax is the largest record: a Write above it seals as
	// several records.
	SealedRecordMax = 64 << 10

	// SealedTagSize is the per-record GCM tag.
	SealedTagSize = 16

	// SealedNoncePrefixLen is the per-file random nonce prefix; the
	// remaining 4 bytes of the 12-byte GCM nonce are the record index.
	SealedNoncePrefixLen = 8

	// sealedCountLen is the record count after the table.
	sealedCountLen = 4

	// sealedMaxBody is the largest plaintext body: the reader's prefix
	// sums are uint32.
	sealedMaxBody = 1<<32 - 1

	// tailGuessMin, tailGuessDiv and tailGuessSlack size the tail a reader
	// fetches at open: the table and the last records before it, in one
	// read. 1/1024 of the body holds the table of a file whose records
	// average 4 KiB or more, an SST's at the default block size; the slack
	// takes in an SST's footer and properties records. Over dstore every
	// byte of it crosses the wire, so it is not sized for smaller records:
	// those cost the open a second read.
	tailGuessMin   = 4 << 10
	tailGuessDiv   = 1024
	tailGuessSlack = 1 << 10

	// sealedMaxSize is the largest body a writer produces: sealedMaxBody
	// bytes of plaintext in records of at least one byte, each with its tag
	// and its table entry, then the table's tag and the count.
	sealedMaxSize = sealedMaxBody*(1+SealedTagSize+4) + SealedTagSize + sealedCountLen

	// growChunk is the first read of a span whose length the file's size or
	// count gave (see readGrown): one read for the tail or table of any body
	// under 1 GiB.
	growChunk = 1 << 20

	// digestExtent is how many body bytes FileDigest fetches per inner read.
	digestExtent = 256 << 10

	// extentPoolMax is the largest ciphertext buffer ReadAt gives back to
	// extentPool. A larger read (a table open's metadata span, a whole-file
	// read) allocates its buffer and drops it, so no pooled buffer pins its
	// size.
	extentPoolMax = 2 * SealedRecordMax
)

// errSealTruncated reports a sealed body whose size or count cannot have
// been produced by a complete writer.
var errSealTruncated = fmt.Errorf("crypt: sealed body truncated: %w", vfs.ErrIntegrity)

// Sealer seals and opens records under one DEK and per-file nonce prefix.
// It is stateless after construction and safe for concurrent use, which is
// what lets SealedWriter seal chunks on multiple goroutines while keeping the
// output byte-identical to sealing inline.
type Sealer struct {
	aead   cipher.AEAD
	prefix [SealedNoncePrefixLen]byte
	aad    []byte // file-binding AAD prefix (the plaintext header)
}

// NewSealer builds a Sealer for one file. noncePrefix must hold at least
// SealedNoncePrefixLen bytes unique per (key, file); aad is the file's
// plaintext header, bound into every record so headers cannot be swapped
// between files.
func NewSealer(key DEK, noncePrefix []byte, aad []byte) (*Sealer, error) {
	if len(noncePrefix) < SealedNoncePrefixLen {
		return nil, fmt.Errorf("crypt: nonce prefix too short: %d", len(noncePrefix))
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	s := &Sealer{aead: aead, aad: append([]byte(nil), aad...)}
	copy(s.prefix[:], noncePrefix)
	return s, nil
}

// scratch holds the nonce and AAD of the record being sealed or opened.
// cipher.AEAD is an interface, so either one built on the stack escapes and
// costs an allocation per record; a pooled struct costs none in the steady
// state. Nonce and AAD are public (file header, nonce prefix, index): no DEK
// or derived key material is ever written to a pooled scratch.
type scratch struct {
	nonce [12]byte
	aad   []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// blockParams derives unit idx's GCM nonce (file prefix ‖ index) and AAD
// (header ‖ index ‖ final-flag) into sc. A unit is a v3 record (final: the
// length table) or a v2 block (final: the short last block).
func (s *Sealer) blockParams(sc *scratch, idx uint32, final bool) (nonce, aad []byte) {
	copy(sc.nonce[:SealedNoncePrefixLen], s.prefix[:])
	binary.BigEndian.PutUint32(sc.nonce[SealedNoncePrefixLen:], idx)
	sc.aad = append(sc.aad[:0], s.aad...)
	sc.aad = binary.BigEndian.AppendUint32(sc.aad, idx)
	if final {
		sc.aad = append(sc.aad, 1)
	} else {
		sc.aad = append(sc.aad, 0)
	}
	return sc.nonce[:], sc.aad
}

// SealBlock appends unit idx's ciphertext (plaintext + tag) to dst. dst may
// be plain[:0]: GCM permits exact in-place overlap.
func (s *Sealer) SealBlock(dst, plain []byte, idx uint32, final bool) []byte {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	nonce, aad := s.blockParams(sc, idx, final)
	return s.aead.Seal(dst, nonce, plain, aad)
}

// OpenBlock authenticates and decrypts one sealed unit, appending the
// plaintext to dst. A failed tag (or wrong idx/final position) returns an
// error wrapping vfs.ErrIntegrity.
func (s *Sealer) OpenBlock(dst, sealed []byte, idx uint32, final bool) ([]byte, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return s.open(sc, dst, sealed, idx, final)
}

// tableTag appends the tag of a length table of n records to dst: GCM over
// no plaintext, the lengths in the AAD after header ‖ n ‖ 1.
func (s *Sealer) tableTag(dst, lengths []byte, n uint32) []byte {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	nonce, aad := s.blockParams(sc, n, true)
	sc.aad = append(aad, lengths...)
	return s.aead.Seal(dst, nonce, nil, sc.aad)
}

// checkTable authenticates a length table of n records against its tag.
func (s *Sealer) checkTable(lengths, tag []byte, n uint32) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	nonce, aad := s.blockParams(sc, n, true)
	sc.aad = append(aad, lengths...)
	if _, err := s.aead.Open(nil, nonce, tag, sc.aad); err != nil {
		return fmt.Errorf("crypt: sealed length table of %d records failed authentication: %w", n, vfs.ErrIntegrity)
	}
	return nil
}

// open is OpenBlock on the caller's scratch. dst may be sealed[:0]: GCM
// permits exact in-place overlap.
func (s *Sealer) open(sc *scratch, dst, sealed []byte, idx uint32, final bool) ([]byte, error) {
	if len(sealed) < SealedTagSize {
		return dst, fmt.Errorf("crypt: sealed unit %d short (%d bytes): %w", idx, len(sealed), vfs.ErrIntegrity)
	}
	nonce, aad := s.blockParams(sc, idx, final)
	out, err := s.aead.Open(dst, nonce, sealed, aad)
	if err != nil {
		return dst, fmt.Errorf("crypt: sealed unit %d failed authentication: %w", idx, vfs.ErrIntegrity)
	}
	return out, nil
}

// readFull fills p from f at off with one inner read. A read that comes back
// short is an I/O error, not evidence of tampering: the caller derived off
// and len(p) from the validated layout.
func readFull(f vfs.RandomAccessFile, p []byte, off int64) error {
	n, err := f.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return err
	}
	if n < len(p) {
		return fmt.Errorf("crypt: sealed body [%d,+%d): read %d bytes: %w", off, len(p), n, io.ErrUnexpectedEOF)
	}
	return nil
}

// readGrown reads n bytes of f at off: the first growChunk with one inner
// read, and the rest in reads that double the buffer only once the bytes
// before have arrived. n comes from the file's size or its unauthenticated
// count, so a storage node that lies about either costs the reader at most
// twice the bytes it actually serves, not an allocation of the size it
// claims.
func readGrown(f vfs.RandomAccessFile, n, off int64) ([]byte, error) {
	buf := make([]byte, 0, min(n, growChunk))
	for int64(len(buf)) < n {
		from := len(buf)
		c := int(min(n-int64(from), max(int64(from), growChunk)))
		buf = slices.Grow(buf, c)[:from+c]
		if err := readFull(f, buf[from:], off+int64(from)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// SealedReaderAt reads a format-v3 body: every ReadAt opens exactly the
// records it overlaps, so a tampered record surfaces as an error wrapping
// vfs.ErrIntegrity, never as wrong bytes. Offsets are body-relative
// plaintext offsets. It is safe for concurrent use.
type SealedReaderAt struct {
	f         vfs.RandomAccessFile
	s         *Sealer
	headerLen int64
	ends      []uint32 // plaintext end offset of each record: the table's prefix sums
	tableTag  [SealedTagSize]byte

	// tail is the ciphertext of the whole records the open's one read
	// fetched with the table. It serves the reads that lie wholly inside
	// it until the first read that goes to storage, which drops it: a
	// table open's footer read, and its metadata read when the tail holds
	// the span, cost no round trip, and an open table does not keep it.
	tail atomic.Pointer[sealedTail]
}

type sealedTail struct {
	off int64  // body offset of ct's first byte, a record boundary
	ct  []byte // ends at the table
}

// NewSealedReaderAt wraps f, whose sealed body starts at headerLen. It reads
// the body's tail with one inner read (two when the table does not fit the
// guess, for records averaging under 4 KiB), authenticates the length table
// and keeps its prefix sums: a truncated body, a size no writer produces, a
// missing table or a tampered count or table fails here. A nil s skips the
// table's authentication; such a reader serves only FileDigest
// (TagChainDigest).
func NewSealedReaderAt(f vfs.RandomAccessFile, s *Sealer, headerLen int64) (*SealedReaderAt, error) {
	sz, err := f.Size()
	if err != nil {
		return nil, err
	}
	bodyLen := sz - headerLen
	if bodyLen < SealedTagSize+sealedCountLen || bodyLen > sealedMaxSize {
		return nil, errSealTruncated
	}
	tailOff := max(0, bodyLen-max(tailGuessMin, bodyLen/tailGuessDiv+tailGuessSlack))
	tail, err := readGrown(f, bodyLen-tailOff, headerLen+tailOff)
	if err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(tail[len(tail)-sealedCountLen:]))
	tableLen := 4*n + SealedTagSize
	// Every record holds at least one byte and its tag.
	if n > (bodyLen-sealedCountLen-tableLen)/(SealedTagSize+1) {
		return nil, errSealTruncated
	}
	tableOff := bodyLen - sealedCountLen - tableLen
	if tableOff < tailOff {
		// Records smaller than the guess assumes: fetch the table alone.
		tailOff = tableOff
		if tail, err = readGrown(f, tableLen, headerLen+tailOff); err != nil {
			return nil, err
		}
	}
	table := tail[tableOff-tailOff:][:4*n]
	r := &SealedReaderAt{f: f, s: s, headerLen: headerLen, ends: make([]uint32, n)}
	copy(r.tableTag[:], tail[tableOff-tailOff+4*n:])
	if s != nil {
		if err := s.checkTable(table, r.tableTag[:], uint32(n)); err != nil {
			return nil, err
		}
	}
	var end uint64
	for k := range r.ends {
		l := binary.LittleEndian.Uint32(table[4*k:])
		end += uint64(l)
		if l == 0 || end > sealedMaxBody {
			return nil, fmt.Errorf("crypt: sealed table: record %d of %d bytes: %w", k, l, vfs.ErrIntegrity)
		}
		r.ends[k] = uint32(end)
	}
	if int64(end)+n*SealedTagSize != tableOff {
		return nil, fmt.Errorf("crypt: sealed table: %d records of %d bytes in a %d-byte body: %w", n, end, tableOff, vfs.ErrIntegrity)
	}
	// Keep the whole records the tail holds, up to the table.
	if k := int64(sort.Search(int(n), func(i int) bool { return r.sealedStart(int64(i)) >= tailOff })); k < n {
		off := r.sealedStart(k)
		r.tail.Store(&sealedTail{off: off, ct: tail[off-tailOff : tableOff-tailOff]})
	}
	return r, nil
}

// TagChainDigest hashes the tag chain of the v3 body of f, which starts at
// headerLen, into the file digest the manifest anchors, without a key:
// count, lengths and tags sit at offsets the layout gives. The digest is
// only meaningful against the manifest, because each tag is unforgeable
// without the DEK.
//
//shield:notestonly the keyless reference the crypt and core digest tests check the writer's and reader's digests against
func TagChainDigest(f vfs.RandomAccessFile, headerLen int64) ([]byte, error) {
	r, err := NewSealedReaderAt(f, nil, headerLen)
	if err != nil {
		return nil, err
	}
	return r.FileDigest()
}

// record returns the index of the record that holds plaintext offset off,
// which is below the body's size.
func (r *SealedReaderAt) record(off int64) int64 {
	k, _ := slices.BinarySearch(r.ends, uint32(off+1))
	return int64(k)
}

// plainStart returns record k's first plaintext offset.
func (r *SealedReaderAt) plainStart(k int64) int64 {
	if k == 0 {
		return 0
	}
	return int64(r.ends[k-1])
}

// sealedStart and sealedEnd bound record k's ciphertext in the body.
func (r *SealedReaderAt) sealedStart(k int64) int64 { return r.plainStart(k) + k*SealedTagSize }
func (r *SealedReaderAt) sealedEnd(k int64) int64   { return int64(r.ends[k]) + (k+1)*SealedTagSize }

// extentPool holds ReadAt's ciphertext buffers between calls. A pooled
// buffer holds this file's (or another sealed file's) ciphertext and the
// verified plaintext of the partial records a read opened in place — the
// bytes the block cache holds anyway — and never key material.
var extentPool = sync.Pool{New: func() any { return new([]byte) }}

// fetch reads the ciphertext of records first..last into buf (or a new
// buffer when buf is too small): copied from the tail when it holds them
// all, otherwise with one inner read, which drops the tail. The result is
// the caller's working memory for this call only.
func (r *SealedReaderAt) fetch(buf []byte, first, last int64) ([]byte, error) {
	off, end := r.sealedStart(first), r.sealedEnd(last)
	if int64(cap(buf)) < end-off {
		buf = make([]byte, end-off)
	}
	ct := buf[:end-off]
	if t := r.tail.Load(); t != nil {
		if off >= t.off {
			copy(ct, t.ct[off-t.off:])
			return ct, nil
		}
		r.tail.Store(nil)
	}
	if err := readFull(r.f, ct, r.headerLen+off); err != nil {
		return nil, err
	}
	return ct, nil
}

// ReadAt implements io.ReaderAt over the verified plaintext body. It reads
// the records p overlaps with one inner read and opens them in order: a
// record p holds whole is opened straight into p, a partial one in place and
// the wanted part copied. On a failed tag n counts only the bytes of the
// records before it, and p[n:] holds no plaintext of the failing record or
// any later one.
func (r *SealedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("crypt: negative offset %d", off)
	}
	size, _ := r.Size()
	if off >= size {
		return 0, io.EOF
	}
	end := min(off+int64(len(p)), size)
	if end == off {
		return 0, nil
	}
	first, last := r.record(off), r.record(end-1)
	ext := extentPool.Get().(*[]byte)
	defer extentPool.Put(ext)
	ct, err := r.fetch(*ext, first, last)
	if err != nil {
		return 0, err
	}
	if cap(ct) <= extentPoolMax {
		*ext = ct
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	n := 0
	for k := first; k <= last; k++ {
		base, plainLen := r.plainStart(k), int64(r.ends[k])-r.plainStart(k)
		sealed := ct[:plainLen+SealedTagSize]
		ct = ct[len(sealed):]
		// [lo, hi) is the part of this record's plaintext that p wants.
		lo, hi := max(off, base)-base, min(end, base+plainLen)-base
		dst := p[n : n+int(hi-lo)]
		if lo == 0 && hi == plainLen {
			if _, err := r.s.open(sc, dst[:0], sealed, uint32(k), false); err != nil {
				clear(dst)
				return n, err
			}
		} else {
			plain, err := r.s.open(sc, sealed[:0], sealed, uint32(k), false)
			if err != nil {
				return n, err
			}
			copy(dst, plain[lo:hi])
		}
		n += len(dst)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size returns the plaintext body length.
func (r *SealedReaderAt) Size() (int64, error) {
	if len(r.ends) == 0 {
		return 0, nil
	}
	return int64(r.ends[len(r.ends)-1]), nil
}

// Close closes the underlying file.
func (r *SealedReaderAt) Close() error { return r.f.Close() }

// FileDigest recomputes the tag-chain digest from the stored ciphertext: the
// tag of every record in order, then the table's. It does not authenticate
// records — callers compare the result against the manifest-recorded digest
// (whose tags only the DEK holder could forge). It walks the body in
// extents of up to digestExtent bytes of whole records, one inner read each:
// storage round trips, not bytes, price a remote walk.
func (r *SealedReaderAt) FileDigest() ([]byte, error) {
	h := sha256.New()
	var buf []byte // one extent buffer for the whole walk
	for k, n := int64(0), int64(len(r.ends)); k < n; {
		off := r.sealedStart(k)
		last := k
		for last+1 < n && r.sealedEnd(last+1)-off <= digestExtent {
			last++
		}
		end := r.sealedEnd(last)
		if int64(cap(buf)) < end-off {
			buf = make([]byte, end-off)
		}
		if err := readFull(r.f, buf[:end-off], r.headerLen+off); err != nil {
			return nil, err
		}
		for ; k <= last; k++ {
			h.Write(buf[r.sealedEnd(k)-off-SealedTagSize : r.sealedEnd(k)-off])
		}
	}
	h.Write(r.tableTag[:])
	return h.Sum(nil), nil
}
