package crypt

import (
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"slices"
	"sync"

	"shield/internal/vfs"
)

// BufferedWriter is SHIELD's WAL writer (Section 5.3): an
// application-managed buffer that accumulates small writes and encrypts
// them in one pass when the buffer reaches its threshold (or on Sync).
//
// The cipher is keyed once per file: the first flush runs the AES key
// schedule and positions a CTR keystream at body offset 0, and every later
// flush XORs into the reused scratch buffer through that same keystream,
// whose position always equals off. What the buffer amortizes is the write
// call per flush; with bufSize == 0 every Write is its own flush and its own
// write call. The bytes are those of one XORKeyStreamAt pass from offset 0,
// whatever the buffer size and however the writes were split.
//
// Trade-off: bytes still in the buffer are lost if the process crashes, but
// nothing ever reaches storage in plaintext.
type BufferedWriter struct {
	f       vfs.WritableFile
	key     DEK
	iv      [IVSize]byte
	ks      cipher.Stream // positioned at off; nil before the first flush and after a failed one
	off     int64         // body offset already persisted
	buf     []byte
	bufSize int
	scratch []byte
}

// NewBufferedWriter wraps f with buffered encryption; bufSize 0 flushes on
// every Write.
func NewBufferedWriter(f vfs.WritableFile, key DEK, iv [IVSize]byte, bufSize int) *BufferedWriter {
	return &BufferedWriter{f: f, key: key, iv: iv, bufSize: bufSize}
}

// Write implements io.Writer; plaintext accumulates in the buffer.
func (w *BufferedWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	if len(w.buf) >= w.bufSize {
		if err := w.flush(); err != nil {
			// p was fully accepted into the buffer (and remains there for a
			// later flush); report it written so the caller's offsets match
			// the bytes this writer has consumed (io.Writer contract).
			return len(p), err
		}
	}
	return len(p), nil
}

func (w *BufferedWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if w.ks == nil {
		s, err := NewStream(w.key, w.iv)
		if err != nil {
			return err
		}
		w.ks = s.keystreamAt(w.off)
	}
	if cap(w.scratch) < len(w.buf) {
		w.scratch = make([]byte, len(w.buf))
	}
	ct := w.scratch[:len(w.buf)]
	w.ks.XORKeyStream(ct, w.buf)
	if err := vfs.WriteFull(w.f, ct); err != nil {
		// The keystream has moved past bytes the file did not accept. The
		// buffer stays for the retry, which re-derives the keystream at off
		// and so encrypts the same plaintext under the same keystream.
		w.ks = nil
		return err
	}
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// Sync flushes the buffer and syncs the file.
func (w *BufferedWriter) Sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes and closes the file.
func (w *BufferedWriter) Close() error {
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// SealedWriter writes a format-v3 body (seal.go) to an append-only file. It
// is the one writer for write-once files: SSTs under SHIELD, and CURRENT
// under the instance policy. Every Write becomes one record (a Write above
// SealedRecordMax several). Records accumulate into chunks of about
// chunkSize bytes; each chunk is sealed inline or on `workers` goroutines
// (Section 5.2's multi-threaded compaction encryption) and written back
// strictly in order, so the bytes on disk depend only on the Write calls,
// not on the worker count or the chunk size. Sync (or Close) finalizes the
// body with the length table, after which the writer accepts no more data;
// append-many streams (WAL, MANIFEST) use BufferedWriter instead.
type SealedWriter struct {
	f         vfs.WritableFile
	sealer    *Sealer
	chunkSize int
	workers   int

	cur     *chunkJob // the chunk accumulating; nil between chunks
	nextRec uint32    // index of the current chunk's first record
	size    uint64    // plaintext bytes accepted
	lens    []uint32  // lengths of the records retired so far: the table
	digest  hash.Hash // tag chain, folded in retirement (= record) order
	sum     []byte    // the file digest; non-nil once finalized
	err     error     // first failure; every later call returns it

	// Retired jobs wait here to be filled again, so a file of any length
	// allocates at most 2*workers+1 of them (one inline) and nothing per
	// chunk. Their buffers are scratch: plaintext and ciphertext of this file
	// only, dropped with the writer at Close.
	free []*chunkJob

	// Parallel pipeline, started by the first chunk when workers > 1.
	jobs  chan *chunkJob
	order []*chunkJob // in flight, oldest first
	wg    sync.WaitGroup
}

// chunkJob is one chunk on its way through the writer: filled by Write,
// sealed by sealChunk (inline or on a worker), written and folded into the
// digest and the table by retire, then reused.
type chunkJob struct {
	plain    []byte
	lens     []uint32 // plaintext length of each record in plain
	sealed   []byte
	firstIdx uint32        // index of the chunk's first record
	done     chan struct{} // worker mode: receives once the chunk is sealed
}

// errSealedTooLarge refuses a body the reader's uint32 prefix sums cannot
// address.
var errSealedTooLarge = errors.New("crypt: sealed body above 4 GiB")

// NewSealedWriter wraps f (positioned just past the plaintext header) with
// sealed encryption in chunks of about chunkSize bytes (default 64 KiB) on
// `workers` goroutines (workers <= 1 seals inline).
func NewSealedWriter(f vfs.WritableFile, sealer *Sealer, chunkSize, workers int) *SealedWriter {
	if chunkSize <= 0 {
		chunkSize = 64 << 10
	}
	return &SealedWriter{f: f, sealer: sealer, chunkSize: chunkSize, workers: workers, digest: sha256.New()}
}

// sealChunk seals every record of one chunk job into job.sealed.
func (w *SealedWriter) sealChunk(job *chunkJob) {
	out := job.sealed[:0]
	if need := len(job.plain) + len(job.lens)*SealedTagSize; cap(out) < need {
		out = make([]byte, 0, need)
	}
	p := job.plain
	for i, n := range job.lens {
		out = w.sealer.SealBlock(out, p[:n], job.firstIdx+uint32(i), false)
		p = p[n:]
	}
	job.sealed = out
}

func (w *SealedWriter) startWorkers() {
	// Two chunks per worker: one being sealed, one queued, so a worker never
	// idles while the producer fills the next chunk.
	w.jobs = make(chan *chunkJob, w.workers*2)
	for i := 0; i < w.workers; i++ {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for job := range w.jobs {
				w.sealChunk(job)
				job.done <- struct{}{}
			}
		}()
	}
}

// nextJob returns a job to fill: a retired one, or a new one while the writer
// is still below its bound. The first chunk's buffer grows with what is
// written, so a small file costs what it holds; later ones are made whole.
func (w *SealedWriter) nextJob() *chunkJob {
	if n := len(w.free); n > 0 {
		job := w.free[n-1]
		w.free = w.free[:n-1]
		job.plain, job.lens = job.plain[:0], job.lens[:0]
		return job
	}
	job := &chunkJob{}
	if w.nextRec > 0 {
		job.plain = make([]byte, 0, w.chunkSize)
	}
	if w.workers > 1 {
		job.done = make(chan struct{}, 1) // one send per dispatch, never blocks the worker
	}
	return job
}

// Write implements io.Writer: p becomes the next record, or the next several
// when it is longer than SealedRecordMax. An empty p writes nothing.
func (w *SealedWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.sum != nil {
		return 0, errors.New("crypt: write after sealed file was finalized")
	}
	consumed := 0
	for len(p) > 0 {
		n := min(len(p), SealedRecordMax)
		if w.size+uint64(n) > sealedMaxBody {
			w.err = errSealedTooLarge
			return consumed, w.err
		}
		if w.cur != nil && len(w.cur.plain)+n > w.chunkSize {
			if err := w.dispatch(); err != nil {
				w.err = err
				// Report the bytes actually accepted so far (io.Writer
				// contract: n < len(p) must accompany a non-nil error).
				return consumed, err
			}
		}
		if w.cur == nil {
			w.cur = w.nextJob()
		}
		w.cur.plain = append(w.cur.plain, p[:n]...)
		w.cur.lens = append(w.cur.lens, uint32(n))
		w.size += uint64(n)
		consumed += n
		p = p[n:]
	}
	if w.cur != nil && len(w.cur.plain) >= w.chunkSize {
		if err := w.dispatch(); err != nil {
			w.err = err
			return consumed, err
		}
	}
	return consumed, nil
}

// dispatch ships the accumulated chunk: sealed and written inline when
// single-threaded, handed to the pipeline otherwise.
func (w *SealedWriter) dispatch() error {
	job := w.cur
	w.cur = nil
	job.firstIdx = w.nextRec
	w.nextRec += uint32(len(job.lens))
	if w.workers <= 1 {
		w.sealChunk(job)
		return w.retire(job)
	}
	if w.jobs == nil {
		w.startWorkers()
	}
	w.jobs <- job
	w.order = append(w.order, job)
	// Keep the pipeline bounded; retire completed chunks in order.
	for len(w.order) > w.workers*2 {
		if err := w.retireOldest(); err != nil {
			return err
		}
	}
	return nil
}

// retire appends one sealed chunk to the file, its tags to the tag chain and
// its lengths to the table, and frees its job for the next chunk.
func (w *SealedWriter) retire(job *chunkJob) error {
	if err := vfs.WriteFull(w.f, job.sealed); err != nil {
		return err
	}
	end := 0
	for _, n := range job.lens {
		end += int(n) + SealedTagSize
		w.digest.Write(job.sealed[end-SealedTagSize : end])
	}
	if len(w.lens)+len(job.lens) > cap(w.lens) {
		// Double: the table costs O(log n) allocations per file, none in
		// most chunks.
		w.lens = slices.Grow(w.lens, len(w.lens)+len(job.lens))
	}
	w.lens = append(w.lens, job.lens...)
	w.free = append(w.free, job)
	return nil
}

// retireOldest waits for the oldest in-flight chunk and retires it. order is
// compacted in place: re-sliced forward, every few appends would reallocate
// it for the life of the file.
func (w *SealedWriter) retireOldest() error {
	job := w.order[0]
	n := copy(w.order, w.order[1:])
	w.order[n] = nil
	w.order = w.order[:n]
	<-job.done
	return w.retire(job)
}

// finalize ships the last chunk, retires everything in flight and writes the
// length table and count; the sealed body and its digest are complete
// afterwards.
func (w *SealedWriter) finalize() error {
	if w.err != nil || w.sum != nil {
		return w.err
	}
	var err error
	if w.cur != nil {
		err = w.dispatch()
	}
	for err == nil && len(w.order) > 0 {
		err = w.retireOldest()
	}
	if err == nil {
		n := len(w.lens)
		table := make([]byte, 4*n, 4*n+SealedTagSize+sealedCountLen)
		for k, l := range w.lens {
			binary.LittleEndian.PutUint32(table[4*k:], l)
		}
		table = w.sealer.tableTag(table, table, uint32(n))
		w.digest.Write(table[4*n:])
		err = vfs.WriteFull(w.f, binary.LittleEndian.AppendUint32(table, uint32(n)))
	}
	if err != nil {
		w.err = err
		return err
	}
	w.sum = w.digest.Sum(nil)
	return nil
}

// Sync finalizes the sealed body and syncs the file. No writes may follow.
func (w *SealedWriter) Sync() error {
	if err := w.finalize(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close finalizes (if Sync has not already), joins the workers, and closes
// the file.
func (w *SealedWriter) Close() error {
	ferr := w.finalize()
	if w.jobs != nil {
		close(w.jobs)
		w.wg.Wait()
		w.jobs = nil
	}
	// The chunk buffers held this file's plaintext; they go with it.
	w.cur, w.free, w.order = nil, nil, nil
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// FileDigest returns the tag-chain digest; ok is false until the body has
// been finalized without error.
func (w *SealedWriter) FileDigest() ([]byte, bool) {
	if w.sum == nil {
		return nil, false
	}
	return append([]byte(nil), w.sum...), true
}
