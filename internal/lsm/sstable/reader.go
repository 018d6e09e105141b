package sstable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"shield/internal/cache"
	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

// ErrNotFound reports that a key is absent from the table.
var ErrNotFound = fmt.Errorf("sstable: not found")

// ErrCorruption is wrapped by every error that indicates the file's bytes are
// wrong (truncated footer, bad magic, checksum mismatch) rather than an I/O
// failure, so recovery and scrub can classify with errors.Is.
var ErrCorruption = fmt.Errorf("sstable: corruption")

// ReaderOptions configures table reads.
type ReaderOptions struct {
	// Cache, when non-nil, caches decoded (decrypted) data blocks keyed by
	// (FileNum, block offset).
	Cache *cache.LRU

	// FileNum identifies this table in the cache keyspace.
	FileNum uint64
}

// Reader provides lookups and iteration over one SST file.
type Reader struct {
	f     vfs.RandomAccessFile
	opts  ReaderOptions
	index index
	delta bool // format 2: data-block keys are delta-encoded
	// filter is the serialized bloom filter (may be nil).
	filter []byte
	props  Properties
}

// NewReader opens the table stored in f, in format 2 or format 1. The
// index, filter and properties are read eagerly and checked; a format-2
// index is then searched where it lies, a format-1 one is converted to that
// layout first. Data blocks are read on demand.
func NewReader(f vfs.RandomAccessFile, opts ReaderOptions) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerLen {
		return nil, fmt.Errorf("%w: file too small (%d bytes)", ErrCorruption, size)
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-footerLen); err != nil && err != io.EOF {
		return nil, fmt.Errorf("sstable: reading footer: %w", err)
	}
	r := &Reader{f: f, opts: opts}
	switch magic := binary.LittleEndian.Uint64(footer[48:]); magic {
	case tableMagicV2:
		r.delta = true
	case tableMagicV1:
	default:
		return nil, fmt.Errorf("%w: bad magic %#x (wrong key or corrupt file?)", ErrCorruption, magic)
	}
	getHandle := func(off int) blockHandle {
		return blockHandle{
			offset: binary.LittleEndian.Uint64(footer[off:]),
			length: binary.LittleEndian.Uint64(footer[off+8:]),
		}
	}
	indexHandle, filterHandle, propsHandle := getHandle(0), getHandle(16), getHandle(32)

	// Filter, index and properties sit back to back between the last data
	// block and the footer (Writer.Finish), so a table open is two reads: the
	// footer above, then everything from the lowest footer handle up to the
	// footer, with each block sliced out of that one buffer (which the
	// filter and a format-2 index keep alive for the reader's life). Format-1
	// tables written before the prefix filter was removed carry one more
	// block between filter and index; no footer handle names it, so it is
	// read past and never decoded.
	metaEnd := uint64(size - footerLen)
	metaOff := metaEnd
	for _, h := range [...]blockHandle{indexHandle, filterHandle, propsHandle} {
		if h.length == 0 {
			continue
		}
		if h.length > metaEnd || h.offset > metaEnd-h.length {
			return nil, fmt.Errorf("%w: footer handle [%d,+%d) outside the %d-byte table", ErrCorruption, h.offset, h.length, size)
		}
		metaOff = min(metaOff, h.offset)
	}
	meta := make([]byte, metaEnd-metaOff)
	if _, err := f.ReadAt(meta, int64(metaOff)); err != nil && err != io.EOF {
		return nil, fmt.Errorf("sstable: reading metadata: %w", err)
	}
	metaBlock := func(h blockHandle) ([]byte, error) {
		if h.length > 0 && h.offset >= metaOff && h.offset <= metaEnd && h.length <= metaEnd-h.offset {
			return decodeBlock(meta[h.offset-metaOff:][:h.length], h.offset)
		}
		return r.readRaw(h) // not in the tail this writer lays out: its own read
	}

	propsData, err := metaBlock(propsHandle)
	if err != nil {
		return nil, fmt.Errorf("sstable: reading properties: %w", err)
	}
	if r.delta {
		err = r.props.decodeBinary(propsData)
	} else if err = json.Unmarshal(propsData, &r.props); err != nil {
		err = fmt.Errorf("%w: decoding properties: %w", ErrCorruption, err)
	}
	if err != nil {
		return nil, err
	}
	indexData, err := metaBlock(indexHandle)
	if err != nil {
		return nil, fmt.Errorf("sstable: reading index: %w", err)
	}
	if r.delta {
		r.index, err = parseIndex(indexData, metaEnd)
	} else {
		r.index, err = parseIndexV1(indexData, metaEnd)
	}
	if err != nil {
		return nil, err
	}
	r.filter, err = metaBlock(filterHandle)
	if err != nil {
		return nil, fmt.Errorf("sstable: reading filter: %w", err)
	}
	return r, nil
}

// readRaw fetches a block with one read and decodes it.
func (r *Reader) readRaw(h blockHandle) ([]byte, error) {
	if h.length == 0 {
		return nil, nil
	}
	buf := make([]byte, h.length)
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil && err != io.EOF {
		return nil, err
	}
	return decodeBlock(buf, h.offset)
}

// decodeBlock takes the stored bytes of the block at off (payload, type byte,
// CRC-32C), verifies the checksum (catching media corruption and — since the
// checksum lives inside the encrypted body — ciphertext tampering) and the
// type byte, and returns the payload as a subslice of buf.
func decodeBlock(buf []byte, off uint64) ([]byte, error) {
	if len(buf) < 1+blockTrailerLen {
		return nil, fmt.Errorf("%w: block handle too short (%d bytes)", ErrCorruption, len(buf))
	}
	checked := buf[:len(buf)-blockTrailerLen] // payload + type byte
	want := binary.LittleEndian.Uint32(buf[len(checked):])
	if got := crc32.Checksum(checked, castagnoli); got != want {
		return nil, fmt.Errorf("%w: block at %d fails checksum (media corruption or tampering)", ErrCorruption, off)
	}
	data := checked[:len(checked)-1]
	if t := checked[len(checked)-1]; t != rawBlock {
		return nil, fmt.Errorf("%w: unknown block type %d at %d", ErrCorruption, t, off)
	}
	return data, nil
}

// readBlock fetches a data block, consulting the block cache first.
func (r *Reader) readBlock(h blockHandle) ([]byte, error) {
	if r.opts.Cache != nil {
		if data, ok := r.opts.Cache.Get(cache.Key{File: r.opts.FileNum, Offset: h.offset}); ok {
			return data, nil
		}
	}
	data, err := r.readRaw(h)
	if err != nil {
		return nil, err
	}
	if r.opts.Cache != nil {
		r.opts.Cache.Put(cache.Key{File: r.opts.FileNum, Offset: h.offset}, data, int64(len(data)))
	}
	return data, nil
}

//shield:notestonly the table's properties block, for the table and compaction tests to assert on
func (r *Reader) Properties() Properties { return r.props }

// VerifyChecksums reads every data block, verifying each CRC-32C trailer
// (which for SHIELD files checks MAC-equivalent integrity of the decrypted
// payload). It bypasses the block cache so the bytes really come off storage,
// and returns the number of blocks verified. The first corruption aborts the
// walk with an ErrCorruption-wrapped error.
func (r *Reader) VerifyChecksums() (int64, error) {
	var n int64
	for i := 0; i < r.index.n; i++ {
		if _, err := r.readRaw(r.index.handle(i)); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Get returns the value and kind for the newest record of userKey visible at
// snapshot seq. Returns ErrNotFound when the table holds no such record
// (a tombstone is returned as KindDelete with a nil value, not ErrNotFound —
// the caller must stop searching older tables).
func (r *Reader) Get(userKey []byte, seq base.SeqNum) ([]byte, base.Kind, error) {
	if r.filter != nil && !bloomMayContain(r.filter, userKey) {
		return nil, 0, ErrNotFound
	}
	var searchBuf [inlineKeyLen]byte
	search := base.AppendInternalKey(searchBuf[:0], userKey, seq, base.KindSet)
	i := r.index.search(search)
	if i == r.index.n {
		return nil, 0, ErrNotFound
	}
	data, err := r.readBlock(r.index.handle(i))
	if err != nil {
		return nil, 0, err
	}
	var it blockIter
	it.init(data, r.delta)
	if !it.seekGE(search) {
		if it.err != nil {
			return nil, 0, it.err
		}
		return nil, 0, ErrNotFound
	}
	key := it.key()
	if !bytes.Equal(base.UserKey(key), userKey) {
		return nil, 0, ErrNotFound
	}
	_, kind := base.DecodeTrailer(key)
	if kind == base.KindDelete {
		return nil, base.KindDelete, nil
	}
	return append([]byte(nil), it.val...), kind, nil
}

// Iter is a two-level iterator over the table's entries in internal-key
// order. Key and Value are valid until the next positioning call (First,
// Next, SeekGE): a format-2 key is rebuilt in a buffer the iterator reuses.
// A caller that keeps a key copies it.
type Iter struct {
	r        *Reader
	blockIdx int
	bi       blockIter
	valid    bool
	err      error
}

// NewIter returns an iterator positioned before the first entry.
func (r *Reader) NewIter() *Iter { return &Iter{r: r, blockIdx: -1} }

// First positions at the smallest entry.
func (it *Iter) First() bool {
	it.blockIdx = -1
	it.valid = it.nextBlock() && it.advance()
	return it.valid
}

// nextBlock loads the block after blockIdx into bi.
func (it *Iter) nextBlock() bool {
	it.blockIdx++
	if it.blockIdx >= it.r.index.n {
		return false
	}
	data, err := it.r.readBlock(it.r.index.handle(it.blockIdx))
	if err != nil {
		it.err = err
		return false
	}
	it.bi.init(data, it.r.delta)
	return true
}

// advance moves bi to its next entry, crossing into later blocks as needed.
func (it *Iter) advance() bool {
	for {
		if it.bi.next() {
			return true
		}
		if it.bi.err != nil {
			it.err = it.bi.err
			return false
		}
		if !it.nextBlock() {
			return false
		}
	}
}

// Next advances to the following entry.
func (it *Iter) Next() bool {
	it.valid = it.valid && it.advance()
	return it.valid
}

// SeekGE positions at the first entry with internal key >= target.
func (it *Iter) SeekGE(target []byte) bool {
	it.blockIdx = it.r.index.search(target) - 1 // nextBlock will land on it
	it.valid = it.nextBlock() && it.seekInBlock(target)
	return it.valid
}

func (it *Iter) seekInBlock(target []byte) bool {
	if it.bi.seekGE(target) {
		return true
	}
	if it.bi.err != nil {
		it.err = it.bi.err
		return false
	}
	// Target beyond this block's last key: continue into the next block.
	return it.nextBlock() && it.advance()
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iter) Valid() bool { return it.valid && it.err == nil }

// Key returns the current internal key, valid until the next positioning
// call.
func (it *Iter) Key() []byte { return it.bi.key() }

// Value returns the current value, valid until the next positioning call.
func (it *Iter) Value() []byte { return it.bi.val }

// Err returns the first error encountered.
func (it *Iter) Err() error { return it.err }

// Close releases the table's file handle.
func (r *Reader) Close() error { return r.f.Close() }
