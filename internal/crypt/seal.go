package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"

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

// blockNonce derives the 12-byte GCM nonce for block idx.
func (s *Sealer) blockNonce(idx uint32) [12]byte {
	var n [12]byte
	copy(n[:SealedNoncePrefixLen], s.prefix[:])
	binary.BigEndian.PutUint32(n[SealedNoncePrefixLen:], idx)
	return n
}

// blockAAD derives the AAD for block idx: header ‖ index ‖ final-flag.
func (s *Sealer) blockAAD(idx uint32, final bool) []byte {
	aad := make([]byte, 0, len(s.aad)+5)
	aad = append(aad, s.aad...)
	var tail [5]byte
	binary.BigEndian.PutUint32(tail[:4], idx)
	if final {
		tail[4] = 1
	}
	return append(aad, tail[:]...)
}

// SealBlock appends block idx's ciphertext (plaintext + tag) to dst.
// Non-final blocks must be exactly SealedBlockSize long; the final block is
// 0..SealedBlockSize-1 bytes.
func (s *Sealer) SealBlock(dst, plain []byte, idx uint32, final bool) []byte {
	nonce := s.blockNonce(idx)
	return s.aead.Seal(dst, nonce[:], plain, s.blockAAD(idx, final))
}

// OpenBlock authenticates and decrypts one sealed block, appending the
// plaintext to dst. A failed tag (or wrong idx/final position) returns an
// error wrapping vfs.ErrIntegrity.
func (s *Sealer) OpenBlock(dst, sealed []byte, idx uint32, final bool) ([]byte, error) {
	if len(sealed) < SealedTagSize {
		return dst, fmt.Errorf("crypt: sealed block %d short (%d bytes): %w", idx, len(sealed), vfs.ErrIntegrity)
	}
	nonce := s.blockNonce(idx)
	out, err := s.aead.Open(dst, nonce[:], sealed, s.blockAAD(idx, final))
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

// SealedPlainSize returns the plaintext size of a sealed body of bodyLen
// ciphertext bytes, or an error wrapping vfs.ErrIntegrity if no complete
// writer could have produced that length.
func SealedPlainSize(bodyLen int64) (int64, error) {
	_, plain, err := sealedBodyLayout(bodyLen)
	return plain, err
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

// TagChainDigest hashes the per-block GCM tags of a sealed body, in block
// order, into the file digest the manifest anchors. It needs only the
// ciphertext — tags sit at fixed offsets — so a storage node can compute it
// without holding any key; the digest is only *meaningful* against the
// manifest because each tag is unforgeable without the DEK.
func TagChainDigest(body []byte) ([]byte, error) {
	if _, _, err := sealedBodyLayout(int64(len(body))); err != nil {
		return nil, err
	}
	h := sha256.New()
	hashTags(h, body)
	return h.Sum(nil), nil
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

// blockExtent returns the ciphertext offset and length of block idx.
func (r *SealedReaderAt) blockExtent(idx int64) (off, n int64) {
	off = idx * sealedCipherBlock
	n, _ = leadingBlock(r.bodyLen - off)
	return off, n
}

// ReadAt implements io.ReaderAt over the verified plaintext body.
func (r *SealedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("crypt: negative offset %d", off)
	}
	if off >= r.plainSize {
		return 0, io.EOF
	}
	n := 0
	for len(p) > 0 && off < r.plainSize {
		idx := off / SealedBlockSize
		coff, clen := r.blockExtent(idx)
		ct := make([]byte, clen)
		if _, err := r.f.ReadAt(ct, r.headerLen+coff); err != nil && err != io.EOF {
			return n, err
		}
		plain, err := r.s.OpenBlock(nil, ct, uint32(idx), idx == r.full)
		if err != nil {
			return n, err
		}
		c := copy(p, plain[off-idx*SealedBlockSize:])
		n += c
		p = p[c:]
		off += int64(c)
	}
	if len(p) > 0 {
		return n, io.EOF
	}
	return n, nil
}

// Size returns the plaintext body length.
func (r *SealedReaderAt) Size() (int64, error) { return r.plainSize, nil }

// Close closes the underlying file.
func (r *SealedReaderAt) Close() error { return r.f.Close() }

// FileDigest recomputes the tag-chain digest from the stored ciphertext,
// reading only the tags. It does not authenticate blocks — callers compare
// the result against the manifest-recorded digest (whose tags only the DEK
// holder could forge).
func (r *SealedReaderAt) FileDigest() ([]byte, error) {
	h := sha256.New()
	var tag [SealedTagSize]byte
	for off := int64(0); off < r.bodyLen; {
		n, tagOff := leadingBlock(r.bodyLen - off)
		if _, err := r.f.ReadAt(tag[:], r.headerLen+off+tagOff); err != nil && err != io.EOF {
			return nil, err
		}
		h.Write(tag[:])
		off += n
	}
	return h.Sum(nil), nil
}

// VerifyAll authenticates every block of the body (the scrub's full pass)
// and returns the tag-chain digest.
func (r *SealedReaderAt) VerifyAll() ([]byte, error) {
	h := sha256.New()
	for idx := int64(0); idx <= r.full; idx++ {
		coff, clen := r.blockExtent(idx)
		ct := make([]byte, clen)
		if _, err := r.f.ReadAt(ct, r.headerLen+coff); err != nil && err != io.EOF {
			return nil, err
		}
		if _, err := r.s.OpenBlock(nil, ct, uint32(idx), idx == r.full); err != nil {
			return nil, err
		}
		hashTags(h, ct)
	}
	return h.Sum(nil), nil
}
