package vfs

import (
	"fmt"
	"io"
	"path"
	"sort"
	"sync"
)

// MemFS is an in-memory FS used by tests and benchmarks that want to factor
// out disk latency. It is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *MemFS {
	return &MemFS{
		files: make(map[string]*memFile),
		dirs:  map[string]bool{".": true, "/": true},
	}
}

type memFile struct {
	mu     sync.Mutex
	body   fileBody
	synced int // bytes guaranteed durable; used by crash simulation
}

// extentSize is the unit a fileBody grows by once it is past its first
// extent. 64 KiB and 256 KiB give the same throughput; with 256 KiB fewer
// appends pay for a fresh extent (Put p99 on the benchmark's mono-fill: 6.0
// against 9.8 us) and a reader crosses fewer of them (reopen 10 % faster).
const extentSize = 256 << 10

// fileBody is the content of one in-memory file, MemFS's and CrashFS's alike:
// a list of extents, every one but the last exactly extentSize long, so an
// append costs O(len(p)) however large the file already is (one flat slice
// re-copies the whole file whenever it outgrows its capacity, which no device
// charges). The first extent grows like a slice, so a 300-byte CURRENT costs
// what it holds; later ones are allocated whole. The body carries no locking
// and no durability state; both belong to the inode that embeds it, and they
// differ on purpose: closing a MemFS handle syncs it, closing a CrashFS handle
// does not (close(2) is not fsync(2); that gap is what the crash harness
// exists to expose).
type fileBody struct {
	extents [][]byte
	size    int
}

func (b *fileBody) len() int { return b.size }

func (b *fileBody) append(p []byte) {
	b.size += len(p)
	for len(p) > 0 {
		last := len(b.extents) - 1
		if last < 0 || len(b.extents[last]) == extentSize {
			var ext []byte
			if last >= 0 {
				ext = make([]byte, 0, extentSize)
			}
			b.extents = append(b.extents, ext)
			last++
		}
		n := min(len(p), extentSize-len(b.extents[last]))
		b.extents[last] = append(b.extents[last], p[:n]...)
		p = p[n:]
	}
}

// readAt implements io.ReaderAt over the body: a read that ends at or past
// the end of the file returns what there is and io.EOF.
func (b *fileBody) readAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative read offset %d", off)
	}
	if off >= int64(b.size) {
		return 0, io.EOF
	}
	n := 0
	i, at := int(off)/extentSize, int(off)%extentSize
	for n < len(p) && i < len(b.extents) {
		n += copy(p[n:], b.extents[i][at:])
		i, at = i+1, 0
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// bytes returns a copy of the body's bytes [from, to).
func (b *fileBody) bytes(from, to int) []byte {
	out := make([]byte, to-from)
	b.readAt(out, int64(from)) //nolint:errcheck // [from, to) lies inside the body
	return out
}

// truncate drops everything past the first n bytes (n <= len).
func (b *fileBody) truncate(n int) {
	keep := (n + extentSize - 1) / extentSize
	clear(b.extents[keep:])
	b.extents = b.extents[:keep]
	if keep > 0 {
		b.extents[keep-1] = b.extents[keep-1][:n-(keep-1)*extentSize]
	}
	b.size = n
}

func clean(name string) string { return path.Clean(name) }

// Create implements FS.
func (m *MemFS) Create(name string) (WritableFile, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	m.dirs[path.Dir(name)] = true
	return &memWritable{f: f}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (RandomAccessFile, error) {
	name = clean(name)
	m.mu.Lock()
	f, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return &memRandom{f: f}, nil
}

// OpenSequential implements FS.
func (m *MemFS) OpenSequential(name string) (SequentialFile, error) {
	name = clean(name)
	m.mu.Lock()
	f, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return &memSequential{f: f}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oldname)
	}
	delete(m.files, oldname)
	m.files[newname] = f
	m.dirs[path.Dir(newname)] = true
	return nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]FileInfo, error) {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	var infos []FileInfo
	for name, f := range m.files {
		if path.Dir(name) == dir {
			f.mu.Lock()
			size := int64(f.body.len())
			f.mu.Unlock()
			infos = append(infos, FileInfo{Name: path.Base(name), Size: size})
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(dir string) error {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	for dir != "." && dir != "/" {
		m.dirs[dir] = true
		dir = path.Dir(dir)
	}
	return nil
}

// SyncDir implements FS. MemFS keeps directory entries durable as soon as
// they are created (it has no namespace-volatility model — CrashFS does), so
// there is nothing to do.
func (m *MemFS) SyncDir(dir string) error { return nil }

// Stat implements FS.
func (m *MemFS) Stat(name string) (FileInfo, error) {
	name = clean(name)
	m.mu.Lock()
	f, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return FileInfo{Name: path.Base(name), Size: int64(f.body.len())}, nil
}

// CrashUnsynced simulates a system crash: for every file, data written after
// the last Sync is discarded. Used by recovery tests to distinguish the OS
// buffered-I/O persistency guarantee from the application-buffer trade-off.
//
//shield:notestonly crash simulation of a test double; moving it to vfstest would need new exported API
func (m *MemFS) CrashUnsynced() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.mu.Lock()
		if f.synced < f.body.len() {
			f.body.truncate(f.synced)
		}
		f.mu.Unlock()
	}
}

type memWritable struct {
	f *memFile
}

func (w *memWritable) Write(p []byte) (int, error) {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	w.f.body.append(p)
	return len(p), nil
}

func (w *memWritable) Sync() error {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	w.f.synced = w.f.body.len()
	return nil
}

func (w *memWritable) Close() error { return w.Sync() }

type memRandom struct {
	f *memFile
}

func (r *memRandom) ReadAt(p []byte, off int64) (int, error) {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	return r.f.body.readAt(p, off)
}

func (r *memRandom) Size() (int64, error) {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	return int64(r.f.body.len()), nil
}

func (r *memRandom) Close() error { return nil }

type memSequential struct {
	f   *memFile
	off int64
}

func (s *memSequential) Read(p []byte) (int, error) {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	n, err := s.f.body.readAt(p, s.off)
	s.off += int64(n)
	if n > 0 {
		err = nil // a short read is not an error for io.Reader; EOF comes next call
	}
	return n, err
}

func (s *memSequential) Close() error { return nil }
