package main

import (
	"path"
	"strings"
	"sync/atomic"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

// Decorators around the stack's public seams. Each one forwards the call and
// records a span; none changes an argument, a result or an error. They are
// installed only for a traced run (stack.go), so the untraced run that
// produces the end-to-end metrics executes none of this file.

// kindOf classifies a path the way lsm names its files, for the layers below
// the FileWrapper seam that are not told the kind.
func kindOf(name string) lsm.FileKind {
	switch b := path.Base(name); {
	case strings.HasSuffix(b, ".sst"):
		return lsm.FileKindSST
	case strings.HasSuffix(b, ".log"):
		return lsm.FileKindWAL
	case strings.HasPrefix(b, "MANIFEST-"):
		return lsm.FileKindManifest
	case b == "CURRENT":
		return lsm.FileKindCurrent
	}
	return lsm.FileKindOther
}

// tracedFS records the vfs.FS calls of one layer (layer = spVFS on the
// compute side, spSrv under the storage node).
type tracedFS struct {
	base  vfs.FS
	t     *tracer
	layer spanName
}

func (fs *tracedFS) Create(name string) (vfs.WritableFile, error) {
	k := kindOf(name)
	sp := fs.t.begin(fs.layer+fCreate, k)
	f, err := fs.base.Create(name)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	return &tracedW{f: f, t: fs.t, layer: fs.layer, kind: k}, nil
}

func (fs *tracedFS) Open(name string) (vfs.RandomAccessFile, error) {
	k := kindOf(name)
	sp := fs.t.begin(fs.layer+fOpen, k)
	f, err := fs.base.Open(name)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	return &tracedR{f: f, t: fs.t, layer: fs.layer, kind: k}, nil
}

func (fs *tracedFS) OpenSequential(name string) (vfs.SequentialFile, error) {
	k := kindOf(name)
	sp := fs.t.begin(fs.layer+fOpen, k)
	f, err := fs.base.OpenSequential(name)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	return &tracedS{f: f, t: fs.t, layer: fs.layer, kind: k}, nil
}

func (fs *tracedFS) Remove(name string) error {
	sp := fs.t.begin(fs.layer+fMeta, kindOf(name))
	defer sp.end(0)
	return fs.base.Remove(name)
}

func (fs *tracedFS) Rename(oldname, newname string) error {
	sp := fs.t.begin(fs.layer+fMeta, kindOf(newname))
	defer sp.end(0)
	return fs.base.Rename(oldname, newname)
}

func (fs *tracedFS) List(dir string) ([]vfs.FileInfo, error) {
	sp := fs.t.begin(fs.layer+fMeta, lsm.FileKindOther)
	defer sp.end(0)
	return fs.base.List(dir)
}

func (fs *tracedFS) MkdirAll(dir string) error {
	sp := fs.t.begin(fs.layer+fMeta, lsm.FileKindOther)
	defer sp.end(0)
	return fs.base.MkdirAll(dir)
}

func (fs *tracedFS) SyncDir(dir string) error {
	sp := fs.t.begin(fs.layer+fMeta, lsm.FileKindOther)
	defer sp.end(0)
	return fs.base.SyncDir(dir)
}

func (fs *tracedFS) Stat(name string) (vfs.FileInfo, error) {
	sp := fs.t.begin(fs.layer+fMeta, kindOf(name))
	defer sp.end(0)
	return fs.base.Stat(name)
}

type tracedW struct {
	f     vfs.WritableFile
	t     *tracer
	layer spanName
	kind  lsm.FileKind
}

func (w *tracedW) Write(p []byte) (int, error) {
	sp := w.t.begin(w.layer+fWrite, w.kind)
	n, err := w.f.Write(p)
	sp.end(n)
	return n, err
}

func (w *tracedW) Sync() error {
	sp := w.t.begin(w.layer+fSync, w.kind)
	defer sp.end(0)
	return w.f.Sync()
}

func (w *tracedW) Close() error {
	sp := w.t.begin(w.layer+fClose, w.kind)
	defer sp.end(0)
	return w.f.Close()
}

type tracedR struct {
	f     vfs.RandomAccessFile
	t     *tracer
	layer spanName
	kind  lsm.FileKind
}

func (r *tracedR) ReadAt(p []byte, off int64) (int, error) {
	sp := r.t.begin(r.layer+fRead, r.kind)
	n, err := r.f.ReadAt(p, off)
	sp.end(n)
	return n, err
}

func (r *tracedR) Size() (int64, error) { return r.f.Size() }
func (r *tracedR) Close() error         { return r.f.Close() }

type tracedS struct {
	f     vfs.SequentialFile
	t     *tracer
	layer spanName
	kind  lsm.FileKind
}

func (s *tracedS) Read(p []byte) (int, error) {
	sp := s.t.begin(s.layer+fReadSeq, s.kind)
	n, err := s.f.Read(p)
	sp.end(n)
	return n, err
}

func (s *tracedS) Close() error { return s.f.Close() }

// The engine asks the files a FileWrapper returns for their tag-chain digest
// through these two optional interfaces (lsm/db.go fileDigest, verifyDigest).
// A decorator that hid them would make the traced engine record and verify
// no digests — a different program from the one the untraced run measures.
type (
	digestWriter interface{ FileDigest() ([]byte, bool) }
	digestReader interface{ FileDigest() ([]byte, error) }
)

type tracedWDigest struct {
	*tracedW
	d digestWriter
}

func (w tracedWDigest) FileDigest() ([]byte, bool) { return w.d.FileDigest() }

type tracedRDigest struct {
	*tracedR
	d digestReader
}

func (r tracedRDigest) FileDigest() ([]byte, error) { return r.d.FileDigest() }

// tracedWrapper records the lsm.FileWrapper calls (core.wrap_create,
// core.wrap_open) and returns files that record the crypt layer: what the
// engine hands to, and gets from, the encrypting writers and readers.
type tracedWrapper struct {
	base lsm.FileWrapper
	t    *tracer
}

func (tw *tracedWrapper) WrapCreate(name string, kind lsm.FileKind, f vfs.WritableFile) (vfs.WritableFile, string, error) {
	sp := tw.t.begin(spCrypt+fCreate, kind)
	w, id, err := tw.base.WrapCreate(name, kind, f)
	sp.end(0)
	if err != nil {
		return nil, "", err
	}
	out := &tracedW{f: w, t: tw.t, layer: spCrypt, kind: kind}
	if d, ok := w.(digestWriter); ok {
		return tracedWDigest{out, d}, id, nil
	}
	return out, id, nil
}

func (tw *tracedWrapper) WrapOpen(name string, kind lsm.FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	sp := tw.t.begin(spCrypt+fOpen, kind)
	r, err := tw.base.WrapOpen(name, kind, f)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	out := &tracedR{f: r, t: tw.t, layer: spCrypt, kind: kind}
	if d, ok := r.(digestReader); ok {
		return tracedRDigest{out, d}, nil
	}
	return out, nil
}

func (tw *tracedWrapper) WrapOpenSequential(name string, kind lsm.FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error) {
	sp := tw.t.begin(spCrypt+fOpen, kind)
	s, err := tw.base.WrapOpenSequential(name, kind, f)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	return &tracedS{f: s, t: tw.t, layer: spCrypt, kind: kind}, nil
}

func (tw *tracedWrapper) FileDeleted(name, dekID string) { tw.base.FileDeleted(name, dekID) }

// tracedKDS records the kds.Service calls. The DEK passes through untouched
// and is never copied into a span or a log line.
type tracedKDS struct {
	base   kds.Service
	t      *tracer
	errors atomic.Int64
}

func (k *tracedKDS) CreateDEK() (kds.KeyID, crypt.DEK, error) {
	sp := k.t.begin(spKDSCreate, lsm.FileKindOther)
	id, dek, err := k.base.CreateDEK()
	sp.end(0)
	if err != nil {
		k.errors.Add(1)
	}
	return id, dek, err
}

func (k *tracedKDS) FetchDEK(id kds.KeyID) (crypt.DEK, error) {
	sp := k.t.begin(spKDSFetch, lsm.FileKindOther)
	dek, err := k.base.FetchDEK(id)
	sp.end(0)
	if err != nil {
		k.errors.Add(1)
	}
	return dek, err
}

func (k *tracedKDS) RevokeDEK(id kds.KeyID) error {
	sp := k.t.begin(spKDSRevoke, lsm.FileKindOther)
	err := k.base.RevokeDEK(id)
	sp.end(0)
	if err != nil {
		k.errors.Add(1)
	}
	return err
}

// tracedEngine records the calls the RESP server makes into one shard. They
// run on the server's connection goroutines, so they are roots, not children
// of the client's op.batch span; server.self_us_per_cmd subtracts them in
// aggregate.
type tracedEngine struct {
	db *lsm.DB
	t  *tracer
}

func (e *tracedEngine) Get(key []byte) ([]byte, error) {
	sp := e.t.begin(spEngineGet, lsm.FileKindOther)
	v, err := e.db.Get(key)
	sp.end(len(v))
	return v, err
}

func (e *tracedEngine) Write(b *lsm.Batch, sync bool) error {
	sp := e.t.begin(spEngineWrite, lsm.FileKindOther)
	n := b.Len()
	err := e.db.Write(b, sync)
	sp.end(n)
	return err
}

func (e *tracedEngine) Metrics() lsm.Metrics { return e.db.Metrics() }
