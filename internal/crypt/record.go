package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"shield/internal/vfs"
)

// Record log format. A file that many small updates append to (a StateLog:
// the secure DEK cache, the KDS key table) is a header and a run of AES-GCM
// records, integers
// little-endian except the big-endian counter in nonce and AAD:
//
//	header = magic(4) version(4) extra prefix(8)
//	record = check(1)‖len(3) ciphertext(len) tag(16) end(1)
//
// extra is whatever a reader needs before it can derive the key (the
// cache's PBKDF2 salt); its length is fixed per magic. The length word is a
// little-endian u32 whose low 24 bits are the length and whose top byte is
// a check of the other three, so a changed length byte is caught before it
// can pass for a torn tail: a record holds at most RecordMaxLen bytes. The
// end byte is the constant recordEnd, never zero, so an intact record never
// ends in a zero byte. Record i (from 0) is sealed under nonce prefix ‖
// u32 i with AAD header ‖ u32 i ‖ the previous record's tag (zeros for
// record 0). So:
//
//   - any changed byte of a record fails its length check, its end byte or
//     its tag;
//   - records cannot be reordered, dropped from the middle, or spliced in
//     from another log (index in nonce and AAD, the tag chain, the header
//     with its random prefix in every AAD);
//   - a record that fails and is all zero bytes from some offset inside it
//     to the end of the file reads as a torn tail, not as damage: that is
//     what an append leaves when the file's new size reached the disk and
//     only part of its data did. Treating it as torn gives an attacker
//     nothing a cut at the record's start would not;
//   - a cut at a record boundary is NOT detected: it reads as an older log.
//     An owner that must notice has to anchor the last tag elsewhere.
//
// The counter never wraps: a writer refuses the 2^32nd record.
const (
	recordVersion   = 1
	recordTagSize   = 16
	recordLenSize   = 4
	recordPrefixLen = 8
	recordAADTail   = 4 + recordTagSize // counter ‖ previous tag
	recordEnd       = 0xE5              // the last byte of every record

	// RecordMaxLen is the largest record a log holds: its length has 24 bits.
	RecordMaxLen = 1<<24 - 1

	// recordBufKeep caps the buffer a writer keeps between flushes: a
	// checkpoint's whole batch is flushed at once, and its buffer should not
	// stay pinned behind the one-record appends that follow.
	recordBufKeep = 64 << 10
)

var (
	// ErrTornRecord reports an incomplete last record: the file ends inside
	// it, as a crash during an append leaves it. The records before it are
	// intact.
	ErrTornRecord = errors.New("crypt: torn record at the end of the log")

	// ErrRecordLogFull reports a writer whose counter space is used up.
	ErrRecordLogFull = errors.New("crypt: record log counter exhausted")
)

// recordAEAD builds the GCM instance a record log is sealed under.
func recordAEAD(key DEK) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	return cipher.NewGCM(block)
}

// recordChain is the per-record state both sides advance: the nonce and the
// AAD, whose header part is fixed and whose tail is counter ‖ previous tag.
type recordChain struct {
	aead  cipher.AEAD
	nonce [12]byte
	aad   []byte
	next  uint64 // counter of the next record
}

func newRecordChain(key DEK, hdr []byte) (recordChain, error) {
	aead, err := recordAEAD(key)
	if err != nil {
		return recordChain{}, err
	}
	c := recordChain{aead: aead, aad: make([]byte, len(hdr)+recordAADTail)}
	copy(c.aad, hdr)
	copy(c.nonce[:recordPrefixLen], hdr[len(hdr)-recordPrefixLen:])
	return c, nil
}

// params sets the nonce and AAD counter of record c.next.
func (c *recordChain) params() {
	binary.BigEndian.PutUint32(c.nonce[recordPrefixLen:], uint32(c.next))
	binary.BigEndian.PutUint32(c.aad[len(c.aad)-recordAADTail:], uint32(c.next))
}

// advance chains the tag of the record just sealed or opened.
func (c *recordChain) advance(tag []byte) {
	copy(c.aad[len(c.aad)-recordTagSize:], tag)
	c.next++
}

// RecordWriter appends sealed records to a new log file. Append only seals
// into the writer's buffer; Sync writes what is buffered and syncs. Append
// may run while a Sync writes, into a second buffer, so an owner can seal
// under its own lock and sync outside it; Syncs must not overlap. It keys
// the cipher once per file, and allocates nothing per Append once its two
// buffers have grown.
type RecordWriter struct {
	f vfs.WritableFile

	mu    sync.Mutex // guards the fields below; never held across I/O
	chain recordChain
	buf   []byte // sealed records not yet handed to a Sync
	spare []byte // the buffer the last Sync wrote, for the next one to fill
	err   error  // sticky: once a write fails, the file may end in a torn record
}

// NewRecordWriter starts a log on f, which must be empty: it buffers the
// header (magic, version, extra and a random nonce prefix), which the first
// Sync writes.
func NewRecordWriter(f vfs.WritableFile, key DEK, magic uint32, extra []byte) (*RecordWriter, error) {
	var prefix [recordPrefixLen]byte
	if _, err := rand.Read(prefix[:]); err != nil {
		return nil, fmt.Errorf("crypt: generating record nonce prefix: %w", err)
	}
	return newRecordWriter(f, key, magic, extra, prefix)
}

func newRecordWriter(f vfs.WritableFile, key DEK, magic uint32, extra []byte, prefix [recordPrefixLen]byte) (*RecordWriter, error) {
	hdr := make([]byte, 8, 8+len(extra)+recordPrefixLen)
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], recordVersion)
	hdr = append(append(hdr, extra...), prefix[:]...)
	chain, err := newRecordChain(key, hdr)
	if err != nil {
		return nil, err
	}
	// The spare starts with room for a few small records, so a writer that
	// appends and syncs one at a time allocates no buffer after its first.
	return &RecordWriter{f: f, chain: chain, buf: hdr, spare: make([]byte, 0, 512)}, nil
}

// Append seals rec as the log's next record into the buffer. rec may be
// wiped as soon as Append returns.
func (w *RecordWriter) Append(rec []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.chain.next > math.MaxUint32 {
		return ErrRecordLogFull
	}
	if len(rec) > RecordMaxLen {
		return fmt.Errorf("crypt: record of %d bytes too large", len(rec))
	}
	w.chain.params()
	w.buf = binary.LittleEndian.AppendUint32(w.buf, lengthWord(uint32(len(rec))))
	w.buf = w.chain.aead.Seal(w.buf, w.chain.nonce[:], rec, w.chain.aad)
	w.chain.advance(w.buf[len(w.buf)-recordTagSize:])
	w.buf = append(w.buf, recordEnd)
	return nil
}

// Sync writes the records appended before it in one Write and syncs the
// file. With nothing buffered it returns at once: an earlier Sync wrote and
// synced every record. After a failed write or sync the file may end in a
// torn record, so the writer refuses every later call.
func (w *RecordWriter) Sync() error {
	w.mu.Lock()
	buf, err := w.buf, w.err
	if err == nil && len(buf) > 0 {
		w.buf, w.spare = w.spare[:0], nil
	}
	w.mu.Unlock()
	if err != nil || len(buf) == 0 {
		return err
	}
	err = vfs.WriteFull(w.f, buf)
	if err == nil {
		err = w.f.Sync()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.err = err
		return err
	}
	if cap(buf) <= recordBufKeep {
		w.spare = buf[:0]
	}
	return nil
}

// Close closes the file; records appended since the last Sync are lost.
func (w *RecordWriter) Close() error { return w.f.Close() }

// lengthWord is n with its check byte on top: the XOR of n's three bytes
// and a constant, so any one changed byte of the word no longer checks and
// an all-zero word never does.
func lengthWord(n uint32) uint32 {
	return n | (n^n>>8^n>>16^0x5C)&0xFF<<24
}

// RecordReader returns the records of a log in order.
type RecordReader struct {
	rest  []byte // the bytes after the records read so far
	chain recordChain
	plain []byte
	err   error
}

// NewRecordReader checks the header of the log in data and keys a reader
// with what key derives from the header's extraLen extra bytes. A short
// header or a wrong magic fails as ErrStateCorrupt, an unknown version as
// ErrStateVersion.
func NewRecordReader(data []byte, magic uint32, extraLen int, key func(extra []byte) (DEK, error)) (*RecordReader, error) {
	hdrLen := 8 + extraLen + recordPrefixLen
	if len(data) < hdrLen {
		return nil, fmt.Errorf("%w: record log header truncated", ErrStateCorrupt)
	}
	if binary.LittleEndian.Uint32(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrStateCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != recordVersion {
		return nil, fmt.Errorf("%w %d", ErrStateVersion, v)
	}
	dek, err := key(data[8 : 8+extraLen])
	if err != nil {
		return nil, err
	}
	chain, err := newRecordChain(dek, data[:hdrLen])
	Zeroize(dek[:])
	if err != nil {
		return nil, err
	}
	return &RecordReader{rest: data[hdrLen:], chain: chain}, nil
}

// Next returns the next record, valid until the following call. At the end
// of the log it returns io.EOF; for a torn last record (the file ends
// inside it, or is all zero bytes from inside it on) ErrTornRecord; for a
// record that fails its length check, its end byte or its tag otherwise, an
// error wrapping vfs.ErrIntegrity. Every call after an error returns that
// error. The reader wipes its plaintext buffer when it returns an error,
// io.EOF included.
func (r *RecordReader) Next() ([]byte, error) {
	if r.err == nil {
		plain, err := r.next()
		if err == nil {
			return plain, nil
		}
		r.err = err
		Zeroize(r.plain[:cap(r.plain)])
	}
	return nil, r.err
}

func (r *RecordReader) next() ([]byte, error) {
	switch {
	case len(r.rest) == 0:
		return nil, io.EOF
	case len(r.rest) < recordLenSize:
		return nil, ErrTornRecord
	}
	word := binary.LittleEndian.Uint32(r.rest)
	if lengthWord(word&RecordMaxLen) != word {
		return nil, r.failed(recordLenSize, "length word does not check")
	}
	n := recordLenSize + int(word&RecordMaxLen) + recordTagSize + 1
	if n > len(r.rest) {
		return nil, ErrTornRecord
	}
	if r.rest[n-1] != recordEnd {
		return nil, r.failed(n, "end byte does not check")
	}
	sealed := r.rest[recordLenSize : n-1]
	r.chain.params()
	plain, err := r.chain.aead.Open(r.plain[:0], r.chain.nonce[:], sealed, r.chain.aad)
	if err != nil {
		return nil, r.failed(n, "failed authentication")
	}
	r.plain = plain
	r.chain.advance(sealed[len(sealed)-recordTagSize:])
	r.rest = r.rest[n:]
	return plain, nil
}

// failed is the error for the record at the front of r.rest, which does not
// check and ends at offset end: ErrTornRecord if the file is zero bytes
// from some offset before end to its end (an append whose new size reached
// the disk before all of its data), else an integrity error.
func (r *RecordReader) failed(end int, what string) error {
	z := len(r.rest)
	for z > 0 && r.rest[z-1] == 0 {
		z--
	}
	if z < end {
		return ErrTornRecord
	}
	return fmt.Errorf("crypt: record %d %s: %w", r.chain.next, what, vfs.ErrIntegrity)
}
