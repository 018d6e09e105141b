package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"sync"

	"shield/internal/vfs"
)

// Sealed file format (format v2).
//
// CTR mode (format v1) gives confidentiality only: a storage adversary can
// flip ciphertext bits and the engine decrypts them to attacker-chosen
// plaintext deltas. Format v2 replaces the CTR body with per-block AES-GCM:
//
//	body = block_0 ... block_{n-1} final_block
//
// Every non-final block seals exactly SealedBlockSize plaintext bytes into
// SealedBlockSize+tag bytes of ciphertext. The file always ends with one
// final block holding the 0..SealedBlockSize-1 byte tail (a full-multiple
// file ends with an empty final block: just its 16-byte tag). The nonce is
// an 8-byte per-file random prefix followed by the 32-bit block index; the
// AAD binds the plaintext file header plus the block index and a final-block
// flag. Consequences:
//
//   - any ciphertext flip fails the block's tag → vfs.ErrIntegrity;
//   - blocks cannot be reordered or spliced across files (index in the
//     nonce+AAD, file identity in the header-derived AAD);
//   - truncation is detected: cutting mid-block breaks the size invariant
//     (body % 4112 must be in [16, 4111]), and cutting at a block boundary
//     leaves a non-final block in last position, whose AAD then fails;
//   - the chain of block tags hashes into a 32-byte file digest that the
//     manifest records, so replacing a whole file with an older validly
//     sealed version of itself is caught against the (trusted) manifest.
const (
	// SealedBlockSize is the plaintext granularity of format v2.
	SealedBlockSize = 4096

	// SealedTagSize is the per-block GCM tag.
	SealedTagSize = 16

	// sealedCipherBlock is the on-disk size of one full sealed block.
	sealedCipherBlock = SealedBlockSize + SealedTagSize

	// SealedNoncePrefixLen is the per-file random nonce prefix; the
	// remaining 4 bytes of the 12-byte GCM nonce are the block index.
	SealedNoncePrefixLen = 8
)

// errSealTruncated reports a sealed body whose size cannot have been
// produced by a complete writer (mid-block truncation or a missing final
// block's tag).
var errSealTruncated = fmt.Errorf("crypt: sealed body truncated: %w", vfs.ErrIntegrity)

// Sealer seals and opens fixed-size blocks under one DEK and per-file nonce
// prefix. It is stateless after construction and safe for concurrent use,
// which is what lets SealedWriter seal chunks on multiple goroutines while
// keeping the output byte-identical to sealing inline.
type Sealer struct {
	aead   cipher.AEAD
	prefix [SealedNoncePrefixLen]byte
	aad    []byte // file-binding AAD prefix (the plaintext header)
}

// NewSealer builds a Sealer for one file. noncePrefix must hold at least
// SealedNoncePrefixLen bytes unique per (key, file); aad is the file's
// plaintext header, bound into every block so headers cannot be swapped
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

// scratch holds the nonce and AAD of the block being sealed or opened.
// cipher.AEAD is an interface, so either one built on the stack escapes and
// costs an allocation per block; a pooled struct costs none in the steady
// state. Nonce and AAD are public (file header, nonce prefix, block index):
// no DEK or derived key material is ever written to a pooled scratch.
type scratch struct {
	nonce [12]byte
	aad   []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// blockParams derives block idx's GCM nonce (file prefix ‖ index) and AAD
// (header ‖ index ‖ final-flag) into sc.
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

// SealBlock appends block idx's ciphertext (plaintext + tag) to dst.
// Non-final blocks must be exactly SealedBlockSize long; the final block is
// 0..SealedBlockSize-1 bytes.
func (s *Sealer) SealBlock(dst, plain []byte, idx uint32, final bool) []byte {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	nonce, aad := s.blockParams(sc, idx, final)
	return s.aead.Seal(dst, nonce, plain, aad)
}

// OpenBlock authenticates and decrypts one sealed block, appending the
// plaintext to dst. A failed tag (or wrong idx/final position) returns an
// error wrapping vfs.ErrIntegrity.
func (s *Sealer) OpenBlock(dst, sealed []byte, idx uint32, final bool) ([]byte, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return s.open(sc, dst, sealed, idx, final)
}

// open is OpenBlock on the caller's scratch. dst may be sealed[:0]: GCM
// permits exact in-place overlap.
func (s *Sealer) open(sc *scratch, dst, sealed []byte, idx uint32, final bool) ([]byte, error) {
	if len(sealed) < SealedTagSize {
		return dst, fmt.Errorf("crypt: sealed block %d short (%d bytes): %w", idx, len(sealed), vfs.ErrIntegrity)
	}
	nonce, aad := s.blockParams(sc, idx, final)
	out, err := s.aead.Open(dst, nonce, sealed, aad)
	if err != nil {
		return dst, fmt.Errorf("crypt: sealed block %d failed authentication: %w", idx, vfs.ErrIntegrity)
	}
	return out, nil
}

// sealedBodyLayout validates a sealed body size and returns the number of
// full (non-final) blocks and the plaintext size.
func sealedBodyLayout(bodyLen int64) (fullBlocks int64, plainSize int64, err error) {
	if bodyLen < SealedTagSize {
		return 0, 0, errSealTruncated
	}
	rem := bodyLen % sealedCipherBlock
	if rem < SealedTagSize {
		// rem == 0 means the file ends on a full-block boundary, i.e. the
		// mandatory final block is missing — boundary truncation.
		return 0, 0, errSealTruncated
	}
	fullBlocks = bodyLen / sealedCipherBlock
	plainSize = fullBlocks*SealedBlockSize + (rem - SealedTagSize)
	return fullBlocks, plainSize, nil
}

// leadingBlock is the one statement of where a sealed block ends and where
// its tag sits: given the rem bytes of a sealed body that remain from a block
// boundary, the leading block is n bytes long (sealedCipherBlock, or all of
// rem for the short final block) and its GCM tag is its last SealedTagSize
// bytes, starting at tagOff. Writer, keyless digest and reader all derive
// the tag chain from this.
func leadingBlock(rem int64) (n, tagOff int64) {
	n = min(rem, sealedCipherBlock)
	return n, n - SealedTagSize
}

// hashTags folds the GCM tag of every block in ct into h, in block order.
// ct is a run of consecutive sealed blocks starting on a block boundary; only
// its last block may be the short final one.
func hashTags(h hash.Hash, ct []byte) {
	for len(ct) > 0 {
		n, tagOff := leadingBlock(int64(len(ct)))
		h.Write(ct[tagOff:n])
		ct = ct[n:]
	}
}

// TagChainDigest hashes the per-block GCM tags of the sealed body of f,
// which starts at headerLen, in block order, into the file digest the
// manifest anchors. It needs only the ciphertext — tags sit at fixed offsets
// — and no key; the digest is only *meaningful* against the manifest because
// each tag is unforgeable without the DEK. It is FileDigest's walk: one
// extent of digestExtentBlocks blocks in memory at a time.
//
//shield:notestonly the keyless reference the crypt and core digest tests check the writer's and reader's digests against
func TagChainDigest(f vfs.RandomAccessFile, headerLen int64) ([]byte, error) {
	r, err := NewSealedReaderAt(f, nil, headerLen)
	if err != nil {
		return nil, err
	}
	return r.FileDigest()
}

// SealedReaderAt reads a format-v2 body with per-block verification: every
// ReadAt authenticates the covering blocks before returning plaintext, so a
// tampered block surfaces as an error wrapping vfs.ErrIntegrity — never as
// wrong bytes. Offsets are body-relative plaintext offsets.
type SealedReaderAt struct {
	f         vfs.RandomAccessFile
	s         *Sealer
	headerLen int64
	bodyLen   int64
	plainSize int64
	full      int64 // number of non-final blocks
}

// NewSealedReaderAt wraps f, whose sealed body starts at headerLen. The
// body size is validated immediately (truncation fails here).
func NewSealedReaderAt(f vfs.RandomAccessFile, s *Sealer, headerLen int64) (*SealedReaderAt, error) {
	sz, err := f.Size()
	if err != nil {
		return nil, err
	}
	bodyLen := sz - headerLen
	full, plain, err := sealedBodyLayout(bodyLen)
	if err != nil {
		return nil, err
	}
	return &SealedReaderAt{f: f, s: s, headerLen: headerLen, bodyLen: bodyLen, plainSize: plain, full: full}, nil
}

// digestExtentBlocks is how many sealed blocks FileDigest fetches per inner
// read.
const digestExtentBlocks = 64

// extentPoolMax is the largest extent buffer ReadAt gives back to
// extentPool: the extent of any read of up to 64 KiB of plaintext, aligned
// or not. A larger read (a table open's metadata span, a whole-file read)
// allocates its extent and drops it, so no pooled buffer pins its size.
const extentPoolMax = (64<<10/SealedBlockSize + 1) * sealedCipherBlock

// extentPool holds ReadAt's ciphertext extents between calls. A pooled
// buffer holds this file's (or another sealed file's) ciphertext and the
// verified plaintext of the partial blocks a read opened in place — the
// bytes the block cache holds anyway — and never key material.
var extentPool = sync.Pool{New: func() any { return new([]byte) }}

// readExtent fetches the ciphertext of sealed blocks first..last with exactly
// one inner ReadAt: the unit every read of the body goes through, so one
// outer call costs one storage round trip however many blocks it covers. The
// extent lands in buf when buf has the capacity, else in a new buffer; it is
// the caller's working memory for this call only and is never shared with a
// call in flight. Whatever buf held before is overwritten by the inner read
// or the call fails, so every byte a caller is handed was read and
// authenticated in that call. A read that comes back short is an I/O error,
// not evidence of tampering (the body length was validated at open).
func (r *SealedReaderAt) readExtent(buf []byte, first, last int64) ([]byte, error) {
	off := first * sealedCipherBlock
	end := min((last+1)*sealedCipherBlock, r.bodyLen)
	if int64(cap(buf)) < end-off {
		buf = make([]byte, end-off)
	}
	ct := buf[:end-off]
	n, err := r.f.ReadAt(ct, r.headerLen+off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if n < len(ct) {
		return nil, fmt.Errorf("crypt: sealed blocks %d..%d: read %d of %d bytes: %w", first, last, n, len(ct), io.ErrUnexpectedEOF)
	}
	return ct, nil
}

// ReadAt implements io.ReaderAt over the verified plaintext body. Blocks are
// authenticated in order and released to p one by one: on a failed tag n
// counts only the bytes of the blocks before it, and p[n:] holds no plaintext
// of the failing block or any later one.
func (r *SealedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("crypt: negative offset %d", off)
	}
	if off >= r.plainSize {
		return 0, io.EOF
	}
	end := min(off+int64(len(p)), r.plainSize)
	if end == off {
		return 0, nil
	}
	first := off / SealedBlockSize
	ext := extentPool.Get().(*[]byte)
	defer extentPool.Put(ext)
	ct, err := r.readExtent(*ext, first, (end-1)/SealedBlockSize)
	if err != nil {
		return 0, err
	}
	if cap(ct) <= extentPoolMax {
		*ext = ct
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	n := 0
	for idx := first; len(ct) > 0; idx++ {
		clen, plainLen := leadingBlock(int64(len(ct)))
		sealed := ct[:clen]
		ct = ct[clen:]
		// [lo, hi) is the part of this block's plaintext that p wants.
		base := idx * SealedBlockSize
		lo, hi := max(off, base)-base, min(end, base+plainLen)-base
		dst := p[n : n+int(hi-lo)]
		if lo == 0 && hi == plainLen {
			// Wholly inside p: decrypt straight into the caller's buffer.
			if _, err := r.s.open(sc, dst[:0], sealed, uint32(idx), idx == r.full); err != nil {
				clear(dst)
				return n, err
			}
		} else {
			// Partial block: open in place in the extent, copy the part wanted.
			plain, err := r.s.open(sc, sealed[:0], sealed, uint32(idx), idx == r.full)
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
func (r *SealedReaderAt) Size() (int64, error) { return r.plainSize, nil }

// Close closes the underlying file.
func (r *SealedReaderAt) Close() error { return r.f.Close() }

// FileDigest recomputes the tag-chain digest from the stored ciphertext. It
// does not authenticate blocks — callers compare the result against the
// manifest-recorded digest (whose tags only the DEK holder could forge). It
// walks the body in extents of digestExtentBlocks blocks, one inner read
// each: storage round trips, not bytes, price a remote walk.
func (r *SealedReaderAt) FileDigest() ([]byte, error) {
	h := sha256.New()
	var buf []byte // one extent buffer for the whole walk
	for first := int64(0); first <= r.full; first += digestExtentBlocks {
		ct, err := r.readExtent(buf, first, min(first+digestExtentBlocks-1, r.full))
		if err != nil {
			return nil, err
		}
		buf = ct
		hashTags(h, ct)
	}
	return h.Sum(nil), nil
}
