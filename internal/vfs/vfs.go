// Package vfs defines the filesystem abstraction (the "Env" layer of the
// LSM-KVS) that every persistent component writes through.
//
// All file creation, appending, and reading in the engine goes through an FS
// implementation. This is the seam where instance-level encryption (EncFS)
// wraps an underlying filesystem, where the disaggregated-storage client
// plugs in, and where I/O accounting and latency/bandwidth emulation live.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
)

// ErrNotFound reports that a file does not exist.
var ErrNotFound = errors.New("vfs: file not found")

// ErrExist reports that a file already exists.
var ErrExist = errors.New("vfs: file already exists")

// ErrNoSpace reports that the underlying storage is out of space (ENOSPC).
// It is a permanent condition from the writer's point of view: retrying the
// same write cannot succeed until an external actor frees space, so retry
// loops (netretry, dstore) must classify it as non-retryable and surface it
// immediately.
var ErrNoSpace = errors.New("vfs: no space left on device")

// ErrIntegrity reports that an authenticated read failed verification: the
// bytes on storage are not the bytes that were written (tampering, bit-rot,
// or a spliced/rolled-back file). It lives at the vfs seam so the encryption
// layer (which detects it) and the engine (which classifies it) agree on the
// sentinel without depending on each other. Decryption layers MUST return it
// instead of unauthenticated plaintext.
var ErrIntegrity = errors.New("vfs: integrity check failed (content does not authenticate)")

// WritableFile is an append-only file handle. LSM files (WAL, SST, MANIFEST)
// are written strictly sequentially.
type WritableFile interface {
	io.Writer

	// Sync flushes buffered data to durable storage.
	Sync() error

	// Close flushes and releases the handle. Close implies Sync for
	// implementations where that distinction matters.
	Close() error
}

// RandomAccessFile supports positional reads, the access pattern of SST
// readers (block fetches by offset).
type RandomAccessFile interface {
	io.ReaderAt
	io.Closer

	// Size returns the file length in bytes.
	Size() (int64, error)
}

// SequentialFile supports streaming reads, the access pattern of WAL and
// MANIFEST recovery.
type SequentialFile interface {
	io.Reader
	io.Closer
}

// FileInfo describes one directory entry.
type FileInfo struct {
	Name string
	Size int64
}

// FS is the filesystem interface the engine is written against.
type FS interface {
	// Create creates (or truncates) a file for appending.
	Create(name string) (WritableFile, error)

	// Open opens a file for positional reads.
	Open(name string) (RandomAccessFile, error)

	// OpenSequential opens a file for streaming reads.
	OpenSequential(name string) (SequentialFile, error)

	// Remove deletes a file. Removing a missing file returns ErrNotFound.
	Remove(name string) error

	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error

	// List returns the entries of a directory, sorted by name.
	List(dir string) ([]FileInfo, error)

	// MkdirAll creates a directory and all missing parents.
	MkdirAll(dir string) error

	// SyncDir flushes a directory's entries to durable storage. A file
	// created or renamed into a directory is not guaranteed to survive a
	// power loss until the directory itself has been synced — fsyncing the
	// file alone persists its contents, not its name. Callers must SyncDir
	// the parent after every durability-relevant create/rename.
	SyncDir(dir string) error

	// Stat returns metadata for one file.
	Stat(name string) (FileInfo, error)
}

// ReadFile reads the entire named file through fs.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// ReadAll reads the whole of an open file.
func ReadAll(f RandomAccessFile) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// WriteFile writes data to the named file through fs, replacing any existing
// contents, and syncs it. It does not sync the directory; the caller owns
// that: a caller that creates a file in place (shield-server's encfs.salt)
// syncs the parent itself.
//
//shield:nosyncdir helper; the caller owns directory durability, as after an in-place create
func WriteFile(fsys FS, name string, data []byte) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	return WriteSynced(f, data)
}

// WriteSynced writes data to f, syncs and closes it. f is closed on every
// path.
func WriteSynced(f WritableFile, data []byte) error {
	if err := WriteFull(f, data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFull writes all of p to w and converts the silent short-write case
// (err == nil && n < len(p)) into io.ErrShortWrite. io.Writer permits that
// combination, and several FS backends (quota enforcement, torn-write fault
// injection) produce it; any call site that ignores n would otherwise ack
// data that was never written.
func WriteFull(w io.Writer, p []byte) error {
	n, err := w.Write(p)
	if err != nil {
		return err
	}
	if n < len(p) {
		return io.ErrShortWrite
	}
	return nil
}

// mapOSError converts os-package errors to vfs sentinel errors so callers can
// test with errors.Is regardless of backend.
func mapOSError(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("%w: %w", ErrNotFound, err)
	case errors.Is(err, fs.ErrExist):
		return fmt.Errorf("%w: %w", ErrExist, err)
	case isNoSpace(err):
		return fmt.Errorf("%w: %w", ErrNoSpace, err)
	default:
		return err
	}
}
