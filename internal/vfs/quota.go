package vfs

import (
	"fmt"
	"path"
	"sync"

	"shield/internal/metrics"
)

// QuotaFS wraps an FS and enforces a byte budget on file data, modeling a
// disk filling up. Writes that would exceed the budget land a partial prefix
// (the bytes that still fit — a real device commits whole pages until the
// allocator fails) and then return ErrNoSpace; file metadata (creates,
// directory entries) is not charged. Removing, truncating, or renaming over
// a file credits its bytes back, so compactions and obsolete-file deletion
// genuinely release space. The budget can be changed at runtime with
// SetLimit, which is how the simulation harness models an operator freeing
// space.
type QuotaFS struct {
	base FS

	mu    sync.Mutex
	limit int64 // <= 0 means unlimited
	used  int64
	sizes map[string]int64 // bytes charged per file
}

// NewQuota wraps base with a byte budget. limit <= 0 means unlimited.
func NewQuota(base FS, limit int64) *QuotaFS {
	return &QuotaFS{base: base, limit: limit, sizes: make(map[string]int64)}
}

// SetLimit replaces the byte budget. limit <= 0 means unlimited. Lowering the
// limit below current usage does not truncate anything; it only makes further
// writes fail.
func (q *QuotaFS) SetLimit(limit int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.limit = limit
}

// Used returns the bytes currently charged against the budget.
func (q *QuotaFS) Used() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.used
}

// ChargeDir charges every existing file under dir against the budget. A
// QuotaFS starts empty, so a wrapper created over a directory that already
// holds data (a restart in the simulation harness) must call ChargeDir before
// use or deletions would under-flow the accounting.
func (q *QuotaFS) ChargeDir(dir string) error {
	infos, err := q.base.List(dir)
	if err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, info := range infos {
		name := path.Join(dir, info.Name)
		if prev, ok := q.sizes[name]; ok {
			q.used -= prev
		}
		q.sizes[name] = info.Size
		q.used += info.Size
	}
	return nil
}

// reserve grants up to want bytes for name, returning how many fit within the
// budget and charging them.
func (q *QuotaFS) reserve(name string, want int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	granted := want
	if q.limit > 0 {
		if free := q.limit - q.used; int64(granted) > free {
			granted = int(max64(free, 0))
		}
	}
	q.used += int64(granted)
	q.sizes[name] += int64(granted)
	return granted
}

// credit returns n unused bytes previously reserved for name.
func (q *QuotaFS) credit(name string, n int) {
	if n <= 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.used -= int64(n)
	q.sizes[name] -= int64(n)
}

// release credits the full charge of name (remove / truncate / clobber).
func (q *QuotaFS) release(name string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if sz, ok := q.sizes[name]; ok {
		q.used -= sz
		delete(q.sizes, name)
	}
}

func (q *QuotaFS) noSpaceErr() error {
	q.mu.Lock()
	limit, used := q.limit, q.used
	q.mu.Unlock()
	metrics.Storage.NoSpaceErrors.Add(1)
	return fmt.Errorf("%w: quota %d bytes exhausted (used %d)", ErrNoSpace, limit, used)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Create implements FS. Creating (or truncating) a file is free; truncation
// credits the old contents back to the budget.
func (q *QuotaFS) Create(name string) (WritableFile, error) {
	f, err := q.base.Create(name)
	if err != nil {
		return nil, err
	}
	q.release(name)
	return &quotaWritable{f: f, fs: q, name: name}, nil
}

// Open implements FS.
func (q *QuotaFS) Open(name string) (RandomAccessFile, error) { return q.base.Open(name) }

// OpenSequential implements FS.
func (q *QuotaFS) OpenSequential(name string) (SequentialFile, error) {
	return q.base.OpenSequential(name)
}

// Remove implements FS. Removing a file releases its charge.
func (q *QuotaFS) Remove(name string) error {
	if err := q.base.Remove(name); err != nil {
		return err
	}
	q.release(name)
	return nil
}

// Rename implements FS. The charge follows the file; a clobbered target is
// credited back.
func (q *QuotaFS) Rename(oldname, newname string) error {
	if err := q.base.Rename(oldname, newname); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if sz, ok := q.sizes[newname]; ok {
		q.used -= sz
		delete(q.sizes, newname)
	}
	if sz, ok := q.sizes[oldname]; ok {
		delete(q.sizes, oldname)
		q.sizes[newname] = sz
	}
	return nil
}

// List implements FS.
func (q *QuotaFS) List(dir string) ([]FileInfo, error) { return q.base.List(dir) }

// MkdirAll implements FS. Directories are metadata and not charged.
func (q *QuotaFS) MkdirAll(dir string) error { return q.base.MkdirAll(dir) }

// SyncDir implements FS.
func (q *QuotaFS) SyncDir(dir string) error { return q.base.SyncDir(dir) }

// Stat implements FS.
func (q *QuotaFS) Stat(name string) (FileInfo, error) { return q.base.Stat(name) }

type quotaWritable struct {
	f    WritableFile
	fs   *QuotaFS
	name string
}

// Write charges p against the budget before handing it to the base file. When
// the budget cannot cover all of p, the prefix that fits is still written —
// a torn tail, exactly what a real ENOSPC mid-append leaves behind — and the
// call reports ErrNoSpace with n < len(p).
func (w *quotaWritable) Write(p []byte) (int, error) {
	granted := w.fs.reserve(w.name, len(p))
	if granted == len(p) {
		n, err := w.f.Write(p)
		if n < len(p) {
			w.fs.credit(w.name, len(p)-n)
		}
		return n, err
	}
	n := 0
	if granted > 0 {
		var err error
		n, err = w.f.Write(p[:granted])
		if n < granted {
			w.fs.credit(w.name, granted-n)
		}
		if err != nil {
			return n, err
		}
	}
	return n, w.fs.noSpaceErr()
}

func (w *quotaWritable) Sync() error  { return w.f.Sync() }
func (w *quotaWritable) Close() error { return w.f.Close() }
