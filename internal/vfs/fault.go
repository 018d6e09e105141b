package vfs

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the default error a FaultFS rule returns.
var ErrInjected = errors.New("vfs: injected fault")

// FaultOp classifies filesystem operations for fault matching.
type FaultOp int

// Fault matching classes. FaultRead covers both positional (ReadAt) and
// streaming (Read) reads; FaultClose covers file handles, not the FS.
const (
	FaultAny FaultOp = iota
	FaultCreate
	FaultOpen
	FaultOpenSequential
	FaultRemove
	FaultRename
	FaultList
	FaultMkdir
	FaultStat
	FaultWrite
	FaultSync
	FaultRead
	FaultClose
	FaultSyncDir
)

// FaultRule describes one injectable failure. A rule fires on operations
// matching Op and Path, gated by trigger counters and probability:
//
//   - After skips the first After matching operations (hit N-th op);
//   - Count caps how many times the rule fires (0 = unlimited);
//   - Probability, when > 0, fires randomly per matching op; when 0 the
//     rule fires deterministically on every eligible match.
//
// What fires is Err (defaulting to ErrInjected), an optional Stall slept
// before returning, and, for writes, a torn write: TornBytes of the
// payload reach the underlying file before the error, modeling a crashed
// storage node mid-append. A rule with Stall > 0 and nil Err stalls
// without failing (a hung, not dead, device).
type FaultRule struct {
	Op          FaultOp
	Path        string // substring match on the file name; "" matches all
	Probability float64
	After       int
	Count       int
	Err         error
	Stall       time.Duration
	TornBytes   int

	hits  int
	fired int
}

// FaultFS wraps an FS and injects per-operation errors, torn writes, and
// stalls according to a rule set, so network/storage failure modes are
// reproducible in tests.
type FaultFS struct {
	base FS

	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*FaultRule
	injected int64
}

// NewFault wraps base with an initially empty rule set. seed makes
// probabilistic rules reproducible.
func NewFault(base FS, seed int64) *FaultFS {
	return &FaultFS{base: base, rng: rand.New(rand.NewSource(seed))}
}

// Inject adds a rule and returns a handle usable with RemoveRule and
// Fired.
func (f *FaultFS) Inject(r FaultRule) *FaultRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	rule := r
	f.rules = append(f.rules, &rule)
	return &rule
}

// RemoveRule deletes a rule installed by Inject.
//
//shield:notestonly accessor of a test double; moving it to vfstest would need new exported API
func (f *FaultFS) RemoveRule(r *FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, have := range f.rules {
		if have == r {
			f.rules = append(f.rules[:i], f.rules[i+1:]...)
			return
		}
	}
}

// ClearRules removes every rule.
func (f *FaultFS) ClearRules() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Injected reports how many faults have fired in total.
//
//shield:notestonly accessor of a test double; moving it to vfstest would need new exported API
func (f *FaultFS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Fired reports how many times one rule has fired.
//
//shield:notestonly accessor of a test double; moving it to vfstest would need new exported API
func (f *FaultFS) Fired(r *FaultRule) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return r.fired
}

// eval matches op/path against the rules, fires at most the strongest
// combination (longest stall, first error, first torn-write length), and
// sleeps any stall before returning.
func (f *FaultFS) eval(op FaultOp, path string) (torn int, err error) {
	f.mu.Lock()
	var stall time.Duration
	for _, r := range f.rules {
		if r.Op != FaultAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.hits++
		if r.hits <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Probability > 0 && f.rng.Float64() >= r.Probability {
			continue
		}
		r.fired++
		f.injected++
		if r.Stall > stall {
			stall = r.Stall
		}
		switch {
		case r.Err != nil:
			if err == nil {
				err = r.Err
			}
		case r.Stall == 0 || r.TornBytes > 0:
			if err == nil {
				err = ErrInjected
			}
		}
		if r.TornBytes > 0 && torn == 0 {
			torn = r.TornBytes
		}
	}
	f.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	return torn, err
}

// Create implements FS.
func (f *FaultFS) Create(name string) (WritableFile, error) {
	if _, err := f.eval(FaultCreate, name); err != nil {
		return nil, err
	}
	w, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultWritable{f: w, fs: f, name: name}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (RandomAccessFile, error) {
	if _, err := f.eval(FaultOpen, name); err != nil {
		return nil, err
	}
	r, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultRandom{f: r, fs: f, name: name}, nil
}

// OpenSequential implements FS.
func (f *FaultFS) OpenSequential(name string) (SequentialFile, error) {
	if _, err := f.eval(FaultOpenSequential, name); err != nil {
		return nil, err
	}
	r, err := f.base.OpenSequential(name)
	if err != nil {
		return nil, err
	}
	return &faultSequential{f: r, fs: f, name: name}, nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if _, err := f.eval(FaultRemove, name); err != nil {
		return err
	}
	return f.base.Remove(name)
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	if _, err := f.eval(FaultRename, oldname); err != nil {
		return err
	}
	return f.base.Rename(oldname, newname)
}

// List implements FS.
func (f *FaultFS) List(dir string) ([]FileInfo, error) {
	if _, err := f.eval(FaultList, dir); err != nil {
		return nil, err
	}
	return f.base.List(dir)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error {
	if _, err := f.eval(FaultMkdir, dir); err != nil {
		return err
	}
	return f.base.MkdirAll(dir)
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error {
	if _, err := f.eval(FaultSyncDir, dir); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

// Stat implements FS.
func (f *FaultFS) Stat(name string) (FileInfo, error) {
	if _, err := f.eval(FaultStat, name); err != nil {
		return FileInfo{}, err
	}
	return f.base.Stat(name)
}

type faultWritable struct {
	f    WritableFile
	fs   *FaultFS
	name string
}

func (w *faultWritable) Write(p []byte) (int, error) {
	torn, err := w.fs.eval(FaultWrite, w.name)
	if err != nil {
		if torn > 0 && torn < len(p) {
			// Torn write: part of the payload lands before the failure.
			n, werr := w.f.Write(p[:torn])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return w.f.Write(p)
}

func (w *faultWritable) Sync() error {
	if _, err := w.fs.eval(FaultSync, w.name); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *faultWritable) Close() error {
	if _, err := w.fs.eval(FaultClose, w.name); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

type faultRandom struct {
	f    RandomAccessFile
	fs   *FaultFS
	name string
}

func (r *faultRandom) ReadAt(p []byte, off int64) (int, error) {
	if _, err := r.fs.eval(FaultRead, r.name); err != nil {
		return 0, err
	}
	return r.f.ReadAt(p, off)
}

func (r *faultRandom) Size() (int64, error) { return r.f.Size() }

func (r *faultRandom) Close() error {
	if _, err := r.fs.eval(FaultClose, r.name); err != nil {
		r.f.Close()
		return err
	}
	return r.f.Close()
}

type faultSequential struct {
	f    SequentialFile
	fs   *FaultFS
	name string
}

func (s *faultSequential) Read(p []byte) (int, error) {
	if _, err := s.fs.eval(FaultRead, s.name); err != nil {
		return 0, err
	}
	return s.f.Read(p)
}

func (s *faultSequential) Close() error {
	if _, err := s.fs.eval(FaultClose, s.name); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
