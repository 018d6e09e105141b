// Package sstable implements the Sorted String Table file format: 4 KiB
// data blocks of delta-encoded internal-key/value entries, a bloom filter
// over user keys, an index block of the data blocks' last keys and handles,
// a binary properties block, and a fixed footer whose magic names the
// format. The writer writes format 2 only; the reader also reads format 1
// (whole keys, a varint index, JSON properties), so stores written before
// format 2 open, and compaction rewrites their tables in format 2.
//
// The package is encryption-agnostic by design: it writes through a
// vfs.WritableFile and reads through a vfs.RandomAccessFile, and the caller
// (the SHIELD codec in internal/core) supplies wrappers that encrypt the
// body and carry the plaintext DEK-ID header. The writer hands the file
// exactly one Write per block (data, filter, index, properties, footer) and
// the reader reads a block with one ReadAt of its handle, so a file layer
// that frames each Write on its own serves each block read from exactly its
// own frame.
package sstable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

// Footer layout: indexHandle(16) filterHandle(16) propsHandle(16) magic(8),
// all little-endian fixed width.
const (
	footerLen       = 16*3 + 8
	blockTrailerLen = 4                  // CRC-32C of payload + type byte
	tableMagicV1    = 0x5353544253484c44 // "SSTBSHLD": whole keys, JSON properties
	tableMagicV2    = 0x5353544253484c32 // "SSTBSHL2": delta keys, in-place index, binary properties
	defaultBits     = 10                 // bloom filter bits per user key

	// rawBlock is the one block type byte, stored between payload and
	// checksum.
	rawBlock = 0
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriterOptions is the table format's description: everything that decides
// the bytes of an SST besides its entries. The engine carries it verbatim
// from its options into every CompactionJob (the JSON names are that wire
// format) and on to NewWriter, so a flush, a local compaction and an
// offloaded worker cannot build different tables from the same settings.
type WriterOptions struct {
	// BlockSize is the data-block flush threshold (default 4096).
	BlockSize int `json:"block_size"`
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	return o
}

// Properties summarizes a table. Format 2 stores them as count-prefixed
// uint64 fields (Properties.appendBinary), format 1 as JSON. A reader
// ignores fields it does not know in either, so the block doubles as the
// format's forward-compatible extension point (the footer's handle slots are
// fixed).
type Properties struct {
	NumEntries  uint64 `json:"num_entries"`
	NumDeletes  uint64 `json:"num_deletes"`
	RawKeyBytes uint64 `json:"raw_key_bytes"`
	RawValBytes uint64 `json:"raw_val_bytes"`
	DataBlocks  uint64 `json:"data_blocks"`
}

// Writer builds one SST file. Keys must be added in strictly increasing
// internal-key order.
type Writer struct {
	f      vfs.WritableFile
	opts   WriterOptions
	block  blockBuilder
	index  indexBuilder
	filter *bloomFilter
	props  Properties

	offset   uint64
	smallest []byte
	largest  []byte // the last key added; nil before the first Add
	closed   bool
}

// NewWriter begins a table on f, with a bloom filter of defaultBits per key.
func NewWriter(f vfs.WritableFile, opts WriterOptions) *Writer {
	return &Writer{f: f, opts: opts.withDefaults(), filter: newBloomFilter(defaultBits)}
}

// Add appends one internal-key/value entry. It copies what it keeps, so the
// caller may reuse ikey and value once it returns.
func (w *Writer) Add(ikey, value []byte) error {
	if w.closed {
		return fmt.Errorf("sstable: writer closed")
	}
	if w.largest != nil && base.CompareInternal(ikey, w.largest) <= 0 {
		return fmt.Errorf("sstable: keys out of order")
	}
	if w.smallest == nil {
		w.smallest = append([]byte(nil), ikey...)
	}
	w.largest = append(w.largest[:0], ikey...)

	w.block.add(ikey, value)
	if w.filter != nil {
		w.filter.add(base.UserKey(ikey))
	}
	w.props.NumEntries++
	if _, kind := base.DecodeTrailer(ikey); kind == base.KindDelete {
		w.props.NumDeletes++
	}
	w.props.RawKeyBytes += uint64(len(ikey))
	w.props.RawValBytes += uint64(len(value))

	if w.block.sizeEstimate() >= w.opts.BlockSize {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.block.empty() {
		return nil
	}
	handle, err := w.writeRaw(w.block.finish())
	if err != nil {
		return err
	}
	w.index.add(w.largest, handle)
	w.props.DataBlocks++
	w.block.reset()
	return nil
}

// writeRaw stores one block as payload, the rawBlock type byte, and a
// CRC-32C over both. The checksum gives end-to-end integrity — it is the "optional
// integrity check" layer of the encryption pipeline: CTR mode is malleable,
// and the checksum (computed over the stored bytes, itself inside the
// encrypted body) detects both media corruption and ciphertext tampering.
func (w *Writer) writeRaw(data []byte) (blockHandle, error) {
	h := blockHandle{offset: w.offset, length: uint64(len(data)) + 1 + blockTrailerLen}
	var tail [1 + blockTrailerLen]byte
	tail[0] = rawBlock
	crc := crc32.Checksum(data, castagnoli)
	crc = crc32.Update(crc, castagnoli, tail[:1])
	binary.LittleEndian.PutUint32(tail[1:], crc)
	// Exactly one Write per block, so a file layer that frames each Write on
	// its own frames each block whole. The trailer goes behind the payload
	// in the caller's buffer when it has the room (a data block's builder
	// keeps it), else append copies the block once.
	if err := vfs.WriteFull(w.f, append(data, tail[:]...)); err != nil {
		return blockHandle{}, err
	}
	w.offset += h.length
	return h, nil
}

// Abort discards an unfinished table: it closes the underlying file without
// writing index or footer, so a caller recovering from a mid-build failure
// (ENOSPC on an output, a failed compaction) can release the handle and then
// remove the partial file. Safe to call after Finish, where it is a no-op.
func (w *Writer) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// EstimatedSize returns the bytes written so far plus the pending block.
func (w *Writer) EstimatedSize() uint64 {
	return w.offset + uint64(w.block.sizeEstimate())
}

// Smallest and Largest return copies of the bounding internal keys; valid
// after at least one Add.
func (w *Writer) Smallest() []byte { return append([]byte(nil), w.smallest...) }

// Largest returns the largest internal key added.
func (w *Writer) Largest() []byte { return append([]byte(nil), w.largest...) }

// Finish flushes remaining data, writes filter/index/properties/footer, and
// closes the file. The Writer is unusable afterwards.
func (w *Writer) Finish() error {
	if w.closed {
		return fmt.Errorf("sstable: writer closed")
	}
	w.closed = true
	if err := w.flushBlock(); err != nil {
		w.f.Close()
		return err
	}

	var filterHandle blockHandle
	if w.filter != nil {
		var err error
		filterHandle, err = w.writeRaw(w.filter.build())
		if err != nil {
			w.f.Close()
			return err
		}
	}

	indexHandle, err := w.writeRaw(w.index.finish())
	if err != nil {
		w.f.Close()
		return err
	}

	propsHandle, err := w.writeRaw(w.props.appendBinary(nil))
	if err != nil {
		w.f.Close()
		return err
	}

	var footer [footerLen]byte
	putHandle := func(off int, h blockHandle) {
		binary.LittleEndian.PutUint64(footer[off:], h.offset)
		binary.LittleEndian.PutUint64(footer[off+8:], h.length)
	}
	putHandle(0, indexHandle)
	putHandle(16, filterHandle)
	putHandle(32, propsHandle)
	binary.LittleEndian.PutUint64(footer[48:], tableMagicV2)
	if err := vfs.WriteFull(w.f, footer[:]); err != nil {
		w.f.Close()
		return err
	}
	w.offset += footerLen

	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// FileSize returns the final size after Finish.
func (w *Writer) FileSize() uint64 { return w.offset }
