package sstable

import (
	"encoding/binary"
	"fmt"
	"slices"

	"shield/internal/lsm/base"
)

// A format-2 data block delta-encodes each key against the one before it:
//
//	varint(shared) varint(unshared) varint(valueLen) keySuffix value
//
// where shared is the length of the prefix the key has in common with the
// previous entry's key, and keySuffix the unshared bytes after it. The first
// entry of a block shares nothing, so a block decodes on its own. There is
// no restart array: a 4 KiB block holds a few dozen entries and an in-block
// seek is a linear scan.
//
// Format-1 blocks (data and index alike) store every key whole:
//
//	varint(keyLen) varint(valueLen) key value
//
// This build reads them and never writes them. Entries are sorted by
// internal-key order. Blocks are the encryption chunk granularity of
// SHIELD's compaction path and the block-cache unit.

// blockBuilder accumulates sorted entries into one format-2 data block.
type blockBuilder struct {
	buf     []byte
	lastKey []byte
	count   int
}

func (b *blockBuilder) add(key, value []byte) {
	shared := 0
	if b.count > 0 {
		n := min(len(key), len(b.lastKey))
		for shared < n && key[shared] == b.lastKey[shared] {
			shared++
		}
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.count++
}

func (b *blockBuilder) sizeEstimate() int { return len(b.buf) }
func (b *blockBuilder) empty() bool       { return b.count == 0 }

// finish returns the block, with room behind it for the writer's trailer so
// that Writer.writeBlock can ship payload and trailer in one Write.
func (b *blockBuilder) finish() []byte {
	b.buf = slices.Grow(b.buf, 1+blockTrailerLen)
	return b.buf
}

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.count = 0
}

// inlineKeyLen is the longest key a blockIter, and a Get's search key,
// hold without allocating.
const inlineKeyLen = 64

// blockIter iterates the entries of one decoded block. Its key is rebuilt in
// a buffer the iterator reuses, so it is valid only until the next call to
// next or seekGE; callers that keep a key copy it. The buffer is an array
// inside the iterator, and the iterator never stores a pointer into itself,
// so one declared in a function (Get's) stays on its stack.
type blockIter struct {
	data   []byte
	off    int  // offset of the next entry
	delta  bool // format 2: keys are delta-encoded
	keyLen int
	val    []byte
	err    error

	long   []byte // the key buffer once a key outgrows inline
	inline [inlineKeyLen]byte
}

// init positions it before the first entry of data.
func (it *blockIter) init(data []byte, delta bool) {
	it.data, it.off, it.delta, it.keyLen, it.val, it.err = data, 0, delta, 0, nil, nil
}

// key returns the current entry's internal key.
func (it *blockIter) key() []byte {
	if it.long != nil {
		return it.long[:it.keyLen]
	}
	return it.inline[:it.keyLen]
}

// next decodes the entry at the current offset and advances. Returns false
// at the end of the block or on corruption (recorded in err).
func (it *blockIter) next() bool {
	if it.off >= len(it.data) {
		return false
	}
	var shared uint64
	if it.delta {
		if shared = it.uvarint(); it.err != nil {
			return false
		}
	}
	klen := it.uvarint()
	vlen := it.uvarint()
	if it.err != nil {
		return false
	}
	// Compared unsigned, so lengths past MaxInt cannot wrap into range.
	if left := uint64(len(it.data) - it.off); klen > left || vlen > left-klen {
		it.err = fmt.Errorf("%w: block entry at %d overruns the block", ErrCorruption, it.off)
		return false
	}
	if shared > uint64(it.keyLen) || shared+klen < base.TrailerLen {
		it.err = fmt.Errorf("%w: block entry at %d has a malformed key", ErrCorruption, it.off)
		return false
	}
	n := int(shared + klen)
	if n > inlineKeyLen && n > cap(it.long) {
		long := make([]byte, n, 2*n)
		copy(long, it.key())
		it.long = long
	}
	buf := it.inline[:]
	if it.long != nil {
		buf = it.long[:cap(it.long)]
	}
	copy(buf[shared:n], it.data[it.off:])
	it.keyLen = n
	it.off += int(klen)
	it.val = it.data[it.off : it.off+int(vlen)]
	it.off += int(vlen)
	return true
}

// uvarint decodes one varint at the current offset, recording corruption in
// err.
func (it *blockIter) uvarint() uint64 {
	if it.err != nil {
		return 0
	}
	v, n := binary.Uvarint(it.data[it.off:])
	if n <= 0 {
		it.err = fmt.Errorf("%w: bad block entry at %d", ErrCorruption, it.off)
		return 0
	}
	it.off += n
	return v
}

// seekGE positions at the first entry with internal key >= target. Returns
// false if no such entry exists in the block.
func (it *blockIter) seekGE(target []byte) bool {
	it.off, it.keyLen, it.err = 0, 0, nil
	for it.next() {
		if base.CompareInternal(it.key(), target) >= 0 {
			return true
		}
	}
	return false
}

// blockHandle locates a block within the table body.
type blockHandle struct {
	offset uint64
	length uint64
}

// decodeHandle reads a format-1 index entry's varint handle.
func decodeHandle(b []byte) (blockHandle, error) {
	off, n := binary.Uvarint(b)
	if n <= 0 {
		return blockHandle{}, fmt.Errorf("%w: bad block handle", ErrCorruption)
	}
	length, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return blockHandle{}, fmt.Errorf("%w: bad block handle", ErrCorruption)
	}
	return blockHandle{offset: off, length: length}, nil
}
