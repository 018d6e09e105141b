// Package wal implements the Write-Ahead Log record format: the
// LevelDB/RocksDB physical log layout of 32 KiB blocks holding checksummed
// record fragments (full / first / middle / last).
//
// The writer emits one physical record per logical append; the reader
// reassembles fragments and stops cleanly at the first corruption or
// truncation, which is how a crash mid-write (or an encrypted tail that was
// lost with the application buffer) manifests.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"

	"shield/internal/vfs"
)

// BlockSize is the physical block size of the log format.
const BlockSize = 32 * 1024

// headerSize is the per-fragment header: checksum(4) length(2) type(1).
const headerSize = 7

// Fragment types.
const (
	fullType   = 1
	firstType  = 2
	middleType = 3
	lastType   = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a damaged log record; the reader stops at the first one.
var ErrCorrupt = errors.New("wal: corrupt record")

// Writer appends logical records to a log file. Appends are single-writer
// (the engine's commit leader); Metrics and Size may be read from any
// goroutine, so the counters they surface are atomics.
type Writer struct {
	f        vfs.WritableFile
	blockOff int // offset within the current block
	// hdr is emit's fragment header. It lives here and not on emit's stack
	// because a buffer handed to an interface's Write escapes: one heap
	// allocation per record otherwise.
	hdr     [headerSize]byte
	written atomic.Int64
	// syncs counts Sync calls and syncBytes the high-water mark of appended
	// bytes covered by a completed Sync. Together they make the engine's
	// group-commit ratio observable: under group commit, syncs stays below
	// the number of committed batches.
	syncs     atomic.Int64
	syncBytes atomic.Int64
}

// Metrics is a point-in-time snapshot of a Writer's durability counters.
type Metrics struct {
	Syncs        int64 // completed Sync calls
	BytesWritten int64 // bytes appended (records + fragment headers + padding)
	BytesSynced  int64 // appended bytes covered by the last completed Sync
}

//shield:notestonly the writer's counters, safe beside appends, for the WAL tests to assert on
func (w *Writer) Metrics() Metrics {
	return Metrics{
		Syncs:        w.syncs.Load(),
		BytesWritten: w.written.Load(),
		BytesSynced:  w.syncBytes.Load(),
	}
}

// NewWriter returns a Writer appending to f, which must be empty or
// positioned at a block boundary (a fresh file).
func NewWriter(f vfs.WritableFile) *Writer {
	return &Writer{f: f}
}

// AddRecord appends one logical record.
func (w *Writer) AddRecord(data []byte) error {
	begin := true
	for {
		leftover := BlockSize - w.blockOff
		if leftover < headerSize {
			// Pad the block tail with zeros; readers skip it.
			if leftover > 0 {
				var pad [headerSize]byte
				if err := vfs.WriteFull(w.f, pad[:leftover]); err != nil {
					return err
				}
				w.written.Add(int64(leftover))
			}
			w.blockOff = 0
			leftover = BlockSize
		}
		avail := leftover - headerSize
		frag := data
		if len(frag) > avail {
			frag = data[:avail]
		}
		data = data[len(frag):]
		end := len(data) == 0

		var typ byte
		switch {
		case begin && end:
			typ = fullType
		case begin:
			typ = firstType
		case end:
			typ = lastType
		default:
			typ = middleType
		}
		if err := w.emit(typ, frag); err != nil {
			return err
		}
		begin = false
		if end {
			return nil
		}
	}
}

func (w *Writer) emit(typ byte, frag []byte) error {
	hdr := &w.hdr
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(len(frag)))
	hdr[6] = typ
	crc := crc32.Update(0, castagnoli, hdr[6:7])
	crc = crc32.Update(crc, castagnoli, frag)
	binary.LittleEndian.PutUint32(hdr[0:4], crc)

	if err := vfs.WriteFull(w.f, hdr[:]); err != nil {
		return err
	}
	if err := vfs.WriteFull(w.f, frag); err != nil {
		return err
	}
	w.blockOff += headerSize + len(frag)
	w.written.Add(int64(headerSize + len(frag)))
	return nil
}

// Sync flushes the log to durable storage. The sync counter and synced-bytes
// mark advance only on success: a failed fsync durably covers nothing.
func (w *Writer) Sync() error {
	covered := w.written.Load()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs.Add(1)
	w.syncBytes.Store(covered)
	return nil
}

// Size returns the bytes appended so far.
func (w *Writer) Size() int64 { return w.written.Load() }

// Close syncs and closes the log file. The closing sync counts in Metrics.
func (w *Writer) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Reader replays logical records from a log file.
type Reader struct {
	r       vfs.SequentialFile
	block   [BlockSize]byte
	n       int // valid bytes in block
	off     int // read offset in block
	eof     bool
	scratch []byte
}

// NewReader returns a Reader over r.
func NewReader(r vfs.SequentialFile) *Reader {
	return &Reader{r: r}
}

// Next returns the next logical record, io.EOF at the clean end of the log,
// or ErrCorrupt at a damaged/truncated record (a typical crash tail).
// The returned slice is valid until the next call.
func (r *Reader) Next() ([]byte, error) {
	r.scratch = r.scratch[:0]
	inFragmented := false
	for {
		typ, frag, err := r.nextFragment()
		if err == io.EOF {
			if inFragmented {
				// Log ended mid-record: truncated tail.
				return nil, fmt.Errorf("%w: truncated record", ErrCorrupt)
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		switch typ {
		case fullType:
			if inFragmented {
				return nil, fmt.Errorf("%w: unexpected full fragment", ErrCorrupt)
			}
			return frag, nil
		case firstType:
			if inFragmented {
				return nil, fmt.Errorf("%w: unexpected first fragment", ErrCorrupt)
			}
			inFragmented = true
			r.scratch = append(r.scratch, frag...)
		case middleType:
			if !inFragmented {
				return nil, fmt.Errorf("%w: orphan middle fragment", ErrCorrupt)
			}
			r.scratch = append(r.scratch, frag...)
		case lastType:
			if !inFragmented {
				return nil, fmt.Errorf("%w: orphan last fragment", ErrCorrupt)
			}
			r.scratch = append(r.scratch, frag...)
			return r.scratch, nil
		default:
			return nil, fmt.Errorf("%w: unknown fragment type %d", ErrCorrupt, typ)
		}
	}
}

func (r *Reader) nextFragment() (byte, []byte, error) {
	for {
		if r.n-r.off < headerSize {
			// Remaining bytes are block padding; load the next block.
			if r.eof {
				return 0, nil, io.EOF
			}
			n, err := io.ReadFull(r.r, r.block[:])
			r.n, r.off = n, 0
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				r.eof = true
				if n == 0 {
					return 0, nil, io.EOF
				}
			} else if err != nil {
				return 0, nil, err
			}
			if r.n < headerSize {
				return 0, nil, io.EOF
			}
		}
		hdr := r.block[r.off : r.off+headerSize]
		length := int(binary.LittleEndian.Uint16(hdr[4:6]))
		typ := hdr[6]
		if typ == 0 && length == 0 {
			// Zero padding up to the block end; skip to next block.
			r.off = r.n
			continue
		}
		if r.off+headerSize+length > r.n {
			return 0, nil, fmt.Errorf("%w: fragment overruns block", ErrCorrupt)
		}
		frag := r.block[r.off+headerSize : r.off+headerSize+length]
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		crc := crc32.Update(0, castagnoli, hdr[6:7])
		crc = crc32.Update(crc, castagnoli, frag)
		if crc != wantCRC {
			return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		r.off += headerSize + length
		return typ, frag, nil
	}
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.r.Close() }
