// Package vfstest holds filesystem support shared by the crash-enumeration
// harnesses of internal/lsm and internal/core.
package vfstest

import (
	"sync"

	"shield/internal/vfs"
)

// AckedFS notes a workload's ack state (what it has had acknowledged: one
// count, or one per writer) twice at every durability boundary (file Sync or
// SyncDir) of the CrashFS below it: just before the sync, and once the
// boundary's image has been captured. It hands both to the crash-point hook
// with the image. Flush, compaction and secure cache goroutines sync while
// writers keep getting acks, so the two bound what the image may hold: every
// op acked before the sync is durable in it, and unsynced tails (a torn
// image keeps prefixes of them) can hold ops up to the one in flight when it
// was captured, but none later. The mutex makes "note the state, sync, run
// the hook" one step: the CrashFS runs the hook on the syncing goroutine,
// inside Sync, after it captured the image. Every component of the workload
// must reach the CrashFS through it.
type AckedFS[T any] struct {
	vfs.FS
	note   func() T
	mu     sync.Mutex
	atSync T // guarded by mu
}

// NewAckedFS wraps cfs and installs point as its AfterSync hook. It calls
// note for the ack state before each sync and again in the hook, and point
// gets each boundary's event and image with the state noted before the sync
// (before) and the one noted after the image was captured (captured).
func NewAckedFS[T any](cfs *vfs.CrashFS, note func() T, point func(event string, img *vfs.CrashImage, before, captured T)) *AckedFS[T] {
	f := &AckedFS[T]{FS: cfs, note: note}
	cfs.AfterSync(func(event string, img *vfs.CrashImage) { point(event, img, f.atSync, note()) })
	return f
}

func (f *AckedFS[T]) synced(sync func() error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.atSync = f.note()
	return sync()
}

// SyncDir implements vfs.FS.
func (f *AckedFS[T]) SyncDir(dir string) error {
	return f.synced(func() error { return f.FS.SyncDir(dir) })
}

// Create implements vfs.FS; the file's Sync notes the state too.
func (f *AckedFS[T]) Create(name string) (vfs.WritableFile, error) {
	w, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &ackedFile[T]{WritableFile: w, fs: f}, nil
}

type ackedFile[T any] struct {
	vfs.WritableFile
	fs *AckedFS[T]
}

func (w *ackedFile[T]) Sync() error { return w.fs.synced(w.WritableFile.Sync) }
