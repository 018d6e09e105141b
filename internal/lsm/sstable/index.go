package sstable

import (
	"encoding/binary"
	"fmt"

	"shield/internal/lsm/base"
)

// A format-2 index block is searched where it lies, with no decode at open:
//
//	lastKey[0] … lastKey[n-1]           the data blocks' last keys, back to back
//	uint32 end[0] … end[n-1]            end offset of each key in the key area
//	(uint64 offset, uint64 length) × n  each data block's handle
//	uint32 n
//
// all little-endian. NewReader checks every fixed-width field once: the end
// offsets rise by at least an internal-key trailer and the last one closes
// the key area, and the handles rise without overlap inside the table body.

const (
	indexEndLen    = 4
	indexHandleLen = 16
	indexCountLen  = 4
)

// indexBuilder accumulates the index of the table being written.
type indexBuilder struct {
	keys    []byte
	ends    []uint32
	handles []blockHandle
}

func (b *indexBuilder) add(lastKey []byte, h blockHandle) {
	b.keys = append(b.keys, lastKey...)
	b.ends = append(b.ends, uint32(len(b.keys)))
	b.handles = append(b.handles, h)
}

// finish lays the index out in its stored form.
func (b *indexBuilder) finish() []byte {
	n := len(b.ends)
	buf := make([]byte, 0, len(b.keys)+n*(indexEndLen+indexHandleLen)+indexCountLen+1+blockTrailerLen)
	buf = append(buf, b.keys...)
	for _, end := range b.ends {
		buf = binary.LittleEndian.AppendUint32(buf, end)
	}
	for _, h := range b.handles {
		buf = binary.LittleEndian.AppendUint64(buf, h.offset)
		buf = binary.LittleEndian.AppendUint64(buf, h.length)
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(n))
}

// index is the checked, in-place view of a stored format-2 index block.
type index struct {
	keys    []byte // the key area
	ends    []byte // n uint32 end offsets
	handles []byte // n 16-byte handles
	n       int
}

// parseIndex checks data as a format-2 index whose data blocks end by
// bodyEnd and returns its view. The view aliases data.
func parseIndex(data []byte, bodyEnd uint64) (index, error) {
	if len(data) < indexCountLen {
		return index{}, fmt.Errorf("%w: index block of %d bytes", ErrCorruption, len(data))
	}
	body := data[:len(data)-indexCountLen]
	n := uint64(binary.LittleEndian.Uint32(data[len(body):]))
	if n > uint64(len(body))/(indexEndLen+indexHandleLen) {
		return index{}, fmt.Errorf("%w: index of %d entries in %d bytes", ErrCorruption, n, len(data))
	}
	keyLen := len(body) - int(n)*(indexEndLen+indexHandleLen)
	x := index{
		keys:    body[:keyLen],
		ends:    body[keyLen : keyLen+int(n)*indexEndLen],
		handles: body[keyLen+int(n)*indexEndLen:],
		n:       int(n),
	}
	var prevKeyEnd, prevBlockEnd uint64
	for i := 0; i < x.n; i++ {
		end := uint64(binary.LittleEndian.Uint32(x.ends[i*indexEndLen:]))
		if end < prevKeyEnd+base.TrailerLen || end > uint64(keyLen) {
			return index{}, fmt.Errorf("%w: index key %d ends at %d, outside the %d-byte key area or before its start", ErrCorruption, i, end, keyLen)
		}
		prevKeyEnd = end
		h := x.handle(i)
		if h.offset < prevBlockEnd || h.length > bodyEnd || h.offset > bodyEnd-h.length {
			return index{}, fmt.Errorf("%w: data block handle [%d,+%d) overlaps its predecessor or leaves the table body", ErrCorruption, h.offset, h.length)
		}
		prevBlockEnd = h.offset + h.length
	}
	if prevKeyEnd != uint64(keyLen) {
		return index{}, fmt.Errorf("%w: index keys end at %d in a %d-byte key area", ErrCorruption, prevKeyEnd, keyLen)
	}
	return x, nil
}

// key returns the last key of data block i.
func (x *index) key(i int) []byte {
	var start uint32
	if i > 0 {
		start = binary.LittleEndian.Uint32(x.ends[(i-1)*indexEndLen:])
	}
	return x.keys[start:binary.LittleEndian.Uint32(x.ends[i*indexEndLen:])]
}

// handle returns the handle of data block i.
func (x *index) handle(i int) blockHandle {
	h := x.handles[i*indexHandleLen:]
	return blockHandle{offset: binary.LittleEndian.Uint64(h), length: binary.LittleEndian.Uint64(h[8:])}
}

// search returns the first data block whose last key is >= target, or n.
func (x *index) search(target []byte) int {
	lo, hi := 0, x.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if base.CompareInternal(x.key(mid), target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// parseIndexV1 converts a format-1 index block (entries of the shared
// format-1 layout, each value a varint handle) into the format-2 layout and
// checks it as parseIndex does.
func parseIndexV1(data []byte, bodyEnd uint64) (index, error) {
	var b indexBuilder
	var it blockIter
	it.init(data, false)
	for it.next() {
		h, err := decodeHandle(it.val)
		if err != nil {
			return index{}, err
		}
		b.add(it.key(), h)
	}
	if it.err != nil {
		return index{}, it.err
	}
	return parseIndex(b.finish(), bodyEnd)
}

// Properties fields in their stored order. A format-2 properties block is
// the field count then that many fields, all little-endian uint64s; a
// reader takes the fields it knows and ignores the rest, so fields can be
// added at the end without a format change.
func (p *Properties) fields() [5]*uint64 {
	return [...]*uint64{&p.NumEntries, &p.NumDeletes, &p.RawKeyBytes, &p.RawValBytes, &p.DataBlocks}
}

func (p *Properties) appendBinary(dst []byte) []byte {
	f := p.fields()
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(f)))
	for _, v := range f {
		dst = binary.LittleEndian.AppendUint64(dst, *v)
	}
	return dst
}

func (p *Properties) decodeBinary(b []byte) error {
	if len(b) < 8 || binary.LittleEndian.Uint64(b) != uint64(len(b)/8-1) || len(b)%8 != 0 {
		return fmt.Errorf("%w: properties block of %d bytes", ErrCorruption, len(b))
	}
	b = b[8:]
	for _, v := range p.fields() {
		if len(b) == 0 {
			break
		}
		*v, b = binary.LittleEndian.Uint64(b), b[8:]
	}
	return nil
}
