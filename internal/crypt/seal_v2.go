package crypt

import (
	"crypto/sha256"
	"fmt"
	"io"

	"shield/internal/vfs"
)

// Format v2, which builds before format v3 wrote for every write-once file:
//
//	body = block_0 ... block_{n-1} final_block
//
// Every non-final block seals exactly SealedBlockSize plaintext bytes into
// SealedBlockSize+tag bytes of ciphertext. The file always ends with one
// final block holding the 0..SealedBlockSize-1 byte tail (a full-multiple
// file ends with an empty final block: just its 16-byte tag). Nonce and AAD
// are v3's with the block index in place of the record index and the final
// block flagged. Nothing writes v2 any more and the serving path refuses it:
// BlockSealedReaderAt is the reader of the offline migration (core.Migrate),
// which rewrites such files as v3.
const (
	// SealedBlockSize is the plaintext granularity of format v2.
	SealedBlockSize = 4096

	// sealedCipherBlock is the on-disk size of one full v2 block.
	sealedCipherBlock = SealedBlockSize + SealedTagSize

	// digestExtentBlocks is how many v2 blocks FileDigest fetches per inner
	// read.
	digestExtentBlocks = 64
)

// BlockSealedReaderAt reads a format-v2 body with per-block verification:
// every ReadAt authenticates the covering blocks before returning plaintext.
// Offsets are body-relative plaintext offsets.
type BlockSealedReaderAt struct {
	f         vfs.RandomAccessFile
	s         *Sealer
	headerLen int64
	bodyLen   int64
	plainSize int64
	full      int64 // number of non-final blocks
}

// NewBlockSealedReaderAt wraps f, whose v2 body starts at headerLen. The
// body size is validated immediately: a body that ends mid-block or on a
// block boundary (the final block missing) fails here.
func NewBlockSealedReaderAt(f vfs.RandomAccessFile, s *Sealer, headerLen int64) (*BlockSealedReaderAt, error) {
	sz, err := f.Size()
	if err != nil {
		return nil, err
	}
	bodyLen := sz - headerLen
	rem := bodyLen % sealedCipherBlock
	if bodyLen < SealedTagSize || rem < SealedTagSize {
		return nil, errSealTruncated
	}
	full := bodyLen / sealedCipherBlock
	return &BlockSealedReaderAt{f: f, s: s, headerLen: headerLen, bodyLen: bodyLen,
		plainSize: full*SealedBlockSize + rem - SealedTagSize, full: full}, nil
}

// readBlocks fetches the ciphertext of blocks first..last with one inner
// read into buf, or a new buffer when buf is too small.
func (r *BlockSealedReaderAt) readBlocks(buf []byte, first, last int64) ([]byte, error) {
	off := first * sealedCipherBlock
	end := min((last+1)*sealedCipherBlock, r.bodyLen)
	if int64(cap(buf)) < end-off {
		buf = make([]byte, end-off)
	}
	ct := buf[:end-off]
	return ct, readFull(r.f, ct, r.headerLen+off)
}

// ReadAt implements io.ReaderAt over the verified plaintext body. Blocks are
// authenticated in order: on a failed tag n counts only the bytes of the
// blocks before it.
func (r *BlockSealedReaderAt) ReadAt(p []byte, off int64) (int, error) {
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
	ct, err := r.readBlocks(nil, first, (end-1)/SealedBlockSize)
	if err != nil {
		return 0, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	n := 0
	for idx := first; len(ct) > 0; idx++ {
		sealed := ct[:min(int64(len(ct)), sealedCipherBlock)]
		ct = ct[len(sealed):]
		plain, err := r.s.open(sc, sealed[:0], sealed, uint32(idx), idx == r.full)
		if err != nil {
			return n, err
		}
		base := idx * SealedBlockSize
		lo, hi := max(off, base)-base, min(end, base+int64(len(plain)))-base
		n += copy(p[n:], plain[lo:hi])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size returns the plaintext body length.
func (r *BlockSealedReaderAt) Size() (int64, error) { return r.plainSize, nil }

// Close closes the underlying file.
func (r *BlockSealedReaderAt) Close() error { return r.f.Close() }

// FileDigest recomputes the v2 tag-chain digest — every block's tag in
// order — from the stored ciphertext, in extents of digestExtentBlocks
// blocks.
func (r *BlockSealedReaderAt) FileDigest() ([]byte, error) {
	h := sha256.New()
	var buf []byte
	for first := int64(0); first <= r.full; first += digestExtentBlocks {
		ct, err := r.readBlocks(buf, first, min(first+digestExtentBlocks-1, r.full))
		if err != nil {
			return nil, err
		}
		buf = ct
		for len(ct) > 0 {
			n := min(int64(len(ct)), sealedCipherBlock)
			h.Write(ct[n-SealedTagSize : n])
			ct = ct[n:]
		}
	}
	return h.Sum(nil), nil
}
