package vfs

import (
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"
)

// CrashFS is a power-loss-simulating in-memory filesystem. It models the two
// POSIX durability gaps that FaultFS (I/O errors) and MemFS.CrashUnsynced
// (file-content loss only) do not:
//
//   - File contents written after the last Sync of that handle live in the
//     page cache and are lost — or arbitrarily truncated — on power loss.
//     Unlike MemFS, Close does NOT imply Sync here.
//   - Directory entries are separate from file contents. A file that was
//     created, written, and fsynced can still vanish wholesale if the parent
//     directory was never synced: fsync(file) persists the inode, not the
//     name. Renames likewise do not survive until SyncDir of the parent.
//
// CrashFS therefore keeps two namespaces: the live one, which every FS
// operation acts on and which readers observe (the running process sees its
// own writes), and the durable one, which only SyncDir mutates. Snapshot
// captures a CrashImage — the durable namespace with, per entry, the synced
// byte prefix and the still-volatile tail — from which Strict or Torn
// post-crash filesystems are materialized and reopened by recovery tests.
//
// Directories themselves (MkdirAll) are considered durable immediately;
// modeling directory-creation loss adds noise without exercising any engine
// code path, since the engine creates its directory once before any I/O.
type CrashFS struct {
	mu      sync.Mutex
	live    map[string]*crashInode
	durable map[string]*crashInode
	dirs    map[string]bool
	rng     *rand.Rand
	points  int
	after   func(event string, img *CrashImage)
}

// crashInode is one file's content. The durable map may keep referencing an
// inode after the live namespace has replaced (Create over an existing name)
// or dropped (Remove, Rename) it; such orphaned inodes are frozen and
// represent the on-disk state a crash would roll the entry back to.
type crashInode struct {
	body   fileBody
	synced int
}

// NewCrash returns an empty CrashFS. seed drives Torn-image randomness so
// failures replay deterministically.
func NewCrash(seed int64) *CrashFS {
	return &CrashFS{
		live:    make(map[string]*crashInode),
		durable: make(map[string]*crashInode),
		dirs:    map[string]bool{".": true, "/": true},
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// NewCrashFrom materializes a crash image (Strict when torn is false, Torn
// with the given seed otherwise) and returns a fresh CrashFS whose live and
// durable namespaces both start from that state — the surviving bytes are on
// disk, hence durable. The simulation harness uses this to keep a DB under
// crash simulation across repeated kill/reopen cycles: each crash snapshots
// the old CrashFS and reopens on a new one built from the image.
func NewCrashFrom(img *CrashImage, torn bool, seed int64) *CrashFS {
	var m *MemFS
	if torn {
		m = img.Torn(seed)
	} else {
		m = img.Strict()
	}
	c := NewCrash(seed)
	for _, dir := range img.dirs {
		c.dirs[dir] = true
		infos, err := m.List(dir)
		if err != nil {
			continue
		}
		for _, info := range infos {
			name := path.Join(dir, info.Name)
			data, err := ReadFile(m, name)
			if err != nil {
				panic("vfs: rebuilding crash fs: " + err.Error())
			}
			ino := &crashInode{synced: len(data)}
			ino.body.append(data)
			c.live[name] = ino
			c.durable[name] = ino
		}
	}
	return c
}

// AfterSync registers fn to run after every durability boundary (file Sync or
// SyncDir) with a freshly captured CrashImage. The crash-point enumeration
// harness uses it to collect one candidate image per boundary from a single
// workload run. fn is called without the FS lock held but must not assume it
// is safe to re-enter the filesystem concurrently with the workload.
func (c *CrashFS) AfterSync(fn func(event string, img *CrashImage)) {
	c.mu.Lock()
	c.after = fn
	c.mu.Unlock()
}

// SyncPoints reports how many durability boundaries (file Sync + SyncDir)
// have occurred.
//
//shield:notestonly accessor of a test double; moving it to vfstest would need new exported API
func (c *CrashFS) SyncPoints() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.points
}

// boundary records a sync point and fires the AfterSync hook. Called with
// c.mu held; the hook runs after it is released.
func (c *CrashFS) boundary(event string) {
	c.points++
	fn := c.after
	if fn == nil {
		return
	}
	img := c.snapshotLocked()
	c.mu.Unlock()
	fn(event, img)
	c.mu.Lock()
}

// Create implements FS. The new entry is volatile until the parent directory
// is synced, even if the file itself is.
func (c *CrashFS) Create(name string) (WritableFile, error) {
	name = clean(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	ino := &crashInode{}
	c.live[name] = ino
	c.dirs[path.Dir(name)] = true
	return &crashWritable{fs: c, name: name, ino: ino}, nil
}

// Open implements FS. Reads observe the live namespace: the running process
// always sees its own writes, synced or not.
func (c *CrashFS) Open(name string) (RandomAccessFile, error) {
	name = clean(name)
	c.mu.Lock()
	ino, ok := c.live[name]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return &crashRandom{fs: c, ino: ino}, nil
}

// OpenSequential implements FS.
func (c *CrashFS) OpenSequential(name string) (SequentialFile, error) {
	f, err := c.Open(name)
	if err != nil {
		return nil, err
	}
	return &crashSequential{f: f.(*crashRandom)}, nil
}

// Remove implements FS. The durable namespace keeps the entry until SyncDir,
// so a crash can resurrect removed files — recovery must tolerate stale WALs,
// manifests, and orphan SSTs reappearing.
func (c *CrashFS) Remove(name string) error {
	name = clean(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.live[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(c.live, name)
	return nil
}

// Rename implements FS. Only the live namespace changes; until SyncDir of the
// parent, a crash rolls the directory back to its previous entries (old name
// present, new name absent or pointing at its prior inode).
func (c *CrashFS) Rename(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	c.mu.Lock()
	defer c.mu.Unlock()
	ino, ok := c.live[oldname]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oldname)
	}
	delete(c.live, oldname)
	c.live[newname] = ino
	c.dirs[path.Dir(newname)] = true
	return nil
}

// List implements FS, over the live namespace.
func (c *CrashFS) List(dir string) ([]FileInfo, error) {
	dir = clean(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	var infos []FileInfo
	for name, ino := range c.live {
		if path.Dir(name) == dir {
			infos = append(infos, FileInfo{Name: path.Base(name), Size: int64(ino.body.len())})
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// MkdirAll implements FS.
func (c *CrashFS) MkdirAll(dir string) error {
	dir = clean(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	for dir != "." && dir != "/" {
		c.dirs[dir] = true
		dir = path.Dir(dir)
	}
	return nil
}

// SyncDir implements FS: the durable namespace of dir is reconciled with the
// live one. Entries created or renamed in become durable (pointing at their
// current inode), removed or renamed-away entries are durably forgotten. This
// is the only operation that mutates the durable namespace.
func (c *CrashFS) SyncDir(dir string) error {
	dir = clean(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirs[dir] {
		return fmt.Errorf("%w: %s", ErrNotFound, dir)
	}
	for name, ino := range c.live {
		if path.Dir(name) == dir {
			c.durable[name] = ino
		}
	}
	for name := range c.durable {
		if path.Dir(name) == dir {
			if _, ok := c.live[name]; !ok {
				delete(c.durable, name)
			}
		}
	}
	c.boundary("syncdir:" + dir)
	return nil
}

// Stat implements FS.
func (c *CrashFS) Stat(name string) (FileInfo, error) {
	name = clean(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	ino, ok := c.live[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return FileInfo{Name: path.Base(name), Size: int64(ino.body.len())}, nil
}

// imageEntry is one durable directory entry at snapshot time.
type imageEntry struct {
	durable  []byte // bytes guaranteed present after the crash
	volatile []byte // bytes that may survive as an arbitrary prefix (torn tail)
}

// CrashImage is the durable state captured at one crash point. Materialize a
// post-crash filesystem with Strict or Torn and point recovery at it.
type CrashImage struct {
	entries map[string]imageEntry
	dirs    []string
	seed    int64
}

// snapshotLocked captures the durable namespace. Caller holds c.mu.
func (c *CrashFS) snapshotLocked() *CrashImage {
	img := &CrashImage{entries: make(map[string]imageEntry, len(c.durable)), seed: c.rng.Int63()}
	for name, ino := range c.durable {
		e := imageEntry{
			durable:  ino.body.bytes(0, ino.synced),
			volatile: ino.body.bytes(ino.synced, ino.body.len()),
		}
		img.entries[name] = e
	}
	for dir := range c.dirs {
		img.dirs = append(img.dirs, dir)
	}
	sort.Strings(img.dirs)
	return img
}

// Snapshot captures the current durable state as a crash image.
func (c *CrashFS) Snapshot() *CrashImage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

// Strict materializes the pessimistic post-crash filesystem: only the durable
// namespace, only synced bytes. Everything unsynced is gone.
func (img *CrashImage) Strict() *MemFS {
	return img.materialize(func(e imageEntry) []byte { return e.durable })
}

// Torn materializes a post-crash filesystem where each file additionally
// keeps a random-length prefix of its volatile tail — the "power failed while
// the page cache was half written back" outcome that produces torn records.
// The namespace stays strict in both modes: entry survival is all-or-nothing,
// content is what tears. seed 0 uses the image's own deterministic seed.
func (img *CrashImage) Torn(seed int64) *MemFS {
	return img.torn(seed, false)
}

// ZeroFilled is Torn where each file's new size reached the disk ahead of
// its data: a file keeps the same random-length prefix of its volatile tail
// as Torn(seed) does, and the rest of the tail reads as zero bytes.
//
//shield:notestonly crash image of a test double; moving it to vfstest would need new exported API
func (img *CrashImage) ZeroFilled(seed int64) *MemFS {
	return img.torn(seed, true)
}

func (img *CrashImage) torn(seed int64, zeroFill bool) *MemFS {
	if seed == 0 {
		seed = img.seed
	}
	rng := rand.New(rand.NewSource(seed))
	// Iterate names in sorted order so the rng consumption is deterministic.
	names := make([]string, 0, len(img.entries))
	for name := range img.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	kept := make(map[string]int, len(names))
	for _, name := range names {
		if n := len(img.entries[name].volatile); n > 0 {
			kept[name] = rng.Intn(n + 1)
		}
	}
	m := img.materialize(func(e imageEntry) []byte { return e.durable })
	graftVolatile(m, img, kept, zeroFill)
	return m
}

// materialize builds a MemFS from the image using contentOf per entry.
func (img *CrashImage) materialize(contentOf func(imageEntry) []byte) *MemFS {
	m := NewMem()
	for _, dir := range img.dirs {
		m.MkdirAll(dir)
	}
	for name, e := range img.entries {
		if err := WriteFile(m, name, contentOf(e)); err != nil {
			panic("vfs: materializing crash image: " + err.Error())
		}
	}
	return m
}

// graftVolatile appends the chosen volatile prefixes onto a strict
// materialization, each padded with zeros to the whole tail if zeroFill.
func graftVolatile(m *MemFS, img *CrashImage, kept map[string]int, zeroFill bool) {
	for name, n := range kept {
		e := img.entries[name]
		data := append(append([]byte(nil), e.durable...), e.volatile[:n]...)
		if zeroFill {
			data = append(data, make([]byte, len(e.volatile)-n)...)
		}
		if err := WriteFile(m, name, data); err != nil {
			panic("vfs: materializing crash image: " + err.Error())
		}
	}
}

// Files lists the entries of the image (durable namespace), sorted.
func (img *CrashImage) Files() []string {
	names := make([]string, 0, len(img.entries))
	for name := range img.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// String summarizes the image for test failure messages.
func (img *CrashImage) String() string {
	var b strings.Builder
	for _, name := range img.Files() {
		e := img.entries[name]
		fmt.Fprintf(&b, "%s durable=%d volatile=%d\n", name, len(e.durable), len(e.volatile))
	}
	return b.String()
}

type crashWritable struct {
	fs   *CrashFS
	name string
	ino  *crashInode
}

func (w *crashWritable) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.ino.body.append(p)
	return len(p), nil
}

// Sync makes the bytes written so far durable (contents only — the entry
// still needs SyncDir if it was never synced into its directory).
func (w *crashWritable) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.ino.synced = w.ino.body.len()
	w.fs.boundary("sync:" + w.name) //shield:nolockio boundary is in-memory crash-point bookkeeping on the owning CrashFS; it never touches storage and expects mu held
	return nil
}

// Close does NOT sync: this is the POSIX close(2) contract, and the gap
// between it and MemFS's forgiving Close-implies-Sync is exactly what the
// crash harness exists to expose.
func (w *crashWritable) Close() error { return nil }

type crashRandom struct {
	fs  *CrashFS
	ino *crashInode
}

func (r *crashRandom) ReadAt(p []byte, off int64) (int, error) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return r.ino.body.readAt(p, off)
}

func (r *crashRandom) Size() (int64, error) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return int64(r.ino.body.len()), nil
}

func (r *crashRandom) Close() error { return nil }

type crashSequential struct {
	f   *crashRandom
	off int64
}

func (s *crashSequential) Read(p []byte) (int, error) {
	n, err := s.f.ReadAt(p, s.off)
	s.off += int64(n)
	if n > 0 && err != nil {
		return n, nil
	}
	return n, err
}

func (s *crashSequential) Close() error { return nil }
