package vfs

import "time"

// ReadLatencyFS charges a device latency to positional reads only — the
// storage model of a monolithic host with an SSD: WAL appends land in the
// OS page cache (free), while block reads that miss the cache pay a device
// round trip. It is what lets the paper's "decryption hides inside read
// latency" result reproduce on an otherwise memory-speed substrate.
type ReadLatencyFS struct {
	FS
	perRead time.Duration
}

// NewReadLatency wraps base, charging perRead to every ReadAt.
func NewReadLatency(base FS, perRead time.Duration) *ReadLatencyFS {
	return &ReadLatencyFS{FS: base, perRead: perRead}
}

// Open implements FS.
func (r *ReadLatencyFS) Open(name string) (RandomAccessFile, error) {
	f, err := r.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &readLatencyFile{f: f, d: r.perRead}, nil
}

type readLatencyFile struct {
	f RandomAccessFile
	d time.Duration
}

func (rl *readLatencyFile) ReadAt(p []byte, off int64) (int, error) {
	if rl.d > 0 {
		time.Sleep(rl.d)
	}
	return rl.f.ReadAt(p, off)
}

func (rl *readLatencyFile) Size() (int64, error) { return rl.f.Size() }
func (rl *readLatencyFile) Close() error         { return rl.f.Close() }
