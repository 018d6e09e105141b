package sstable

import (
	"encoding/binary"
	"fmt"
	"slices"

	"shield/internal/lsm/base"
)

// Data and index blocks share one entry format:
//
//	varint(keyLen) varint(valueLen) key value
//
// Entries are sorted by internal-key order. Blocks are the encryption chunk
// granularity of SHIELD's compaction path and the block-cache unit.

// blockBuilder accumulates sorted entries into one block.
type blockBuilder struct {
	buf   []byte
	count int
}

func (b *blockBuilder) add(key, value []byte) {
	var tmp [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	b.buf = append(b.buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(value)))
	b.buf = append(b.buf, tmp[:n]...)
	b.buf = append(b.buf, key...)
	b.buf = append(b.buf, value...)
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

// blockIter iterates the entries of one decoded block.
type blockIter struct {
	data []byte
	off  int
	key  []byte
	val  []byte
	err  error
}

func newBlockIter(data []byte) *blockIter {
	return &blockIter{data: data, off: -1}
}

// next decodes the entry at the current offset and advances. Returns false
// at the end of the block or on corruption (recorded in err).
func (it *blockIter) next() bool {
	if it.off < 0 {
		it.off = 0
	}
	if it.off >= len(it.data) {
		return false
	}
	klen, n := binary.Uvarint(it.data[it.off:])
	if n <= 0 {
		it.err = fmt.Errorf("%w: bad block entry at %d", ErrCorruption, it.off)
		return false
	}
	it.off += n
	vlen, n := binary.Uvarint(it.data[it.off:])
	if n <= 0 {
		it.err = fmt.Errorf("%w: bad block entry at %d", ErrCorruption, it.off)
		return false
	}
	it.off += n
	// Compared unsigned, so lengths past MaxInt cannot wrap into range.
	if left := uint64(len(it.data) - it.off); klen > left || vlen > left-klen {
		it.err = fmt.Errorf("%w: block entry at %d overruns the block", ErrCorruption, it.off)
		return false
	}
	it.key = it.data[it.off : it.off+int(klen)]
	it.off += int(klen)
	it.val = it.data[it.off : it.off+int(vlen)]
	it.off += int(vlen)
	return true
}

// seekGE positions at the first entry with internal key >= target. Returns
// false if no such entry exists in the block.
func (it *blockIter) seekGE(target []byte) bool {
	it.off = 0
	for it.next() {
		if base.CompareInternal(it.key, target) >= 0 {
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

func (h blockHandle) encode() []byte {
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], h.offset)
	n += binary.PutUvarint(buf[n:], h.length)
	return buf[:n]
}

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
