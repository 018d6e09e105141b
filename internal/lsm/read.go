package lsm

import (
	"errors"
	"sort"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// ---- Read path ----

// Get returns the value for key, or ErrNotFound.
func (d *DB) Get(key []byte) ([]byte, error) {
	return d.getAt(key, base.SeqNum(d.lastSeq.Load()))
}

func (d *DB) getAt(key []byte, seq base.SeqNum) ([]byte, error) {
	d.metGets.Add(1)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	mem := d.mem
	// No copy: d.imm is only appended to (rotateAndUnlock) and resliced
	// from the front (the flush loop), never written in place, so an append
	// lands past the end of every slice header taken before it and the one
	// taken here under d.mu still names the same memtables after the unlock.
	imms := d.imm
	ver := d.current
	// Pin obsolete-file deletion while this read holds the version:
	// compaction may otherwise unlink an SST between the version capture
	// and the table open.
	d.iterCount++
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.iterCount--
		if d.iterCount == 0 && len(d.zombies) > 0 {
			d.deleteObsoleteLocked()
		}
		d.mu.Unlock()
	}()

	// Active memtable, then immutables newest-first.
	if v, kind, ok := mem.get(key, seq); ok {
		if kind == base.KindDelete {
			return nil, ErrNotFound
		}
		return append([]byte(nil), v...), nil
	}
	for i := len(imms) - 1; i >= 0; i-- {
		if v, kind, ok := imms[i].get(key, seq); ok {
			if kind == base.KindDelete {
				return nil, ErrNotFound
			}
			return append([]byte(nil), v...), nil
		}
	}

	// L0 newest-first: files may overlap.
	for _, f := range ver.Levels[0] {
		if !f.Overlaps(key, key) {
			continue
		}
		v, kind, err := d.tableGet(f.FileNum, key, seq)
		if err == nil {
			if kind == base.KindDelete {
				return nil, ErrNotFound
			}
			return v, nil
		}
		if !errors.Is(err, ErrNotFound) {
			return nil, err
		}
	}
	// Deeper levels: at most one candidate file per level.
	for lvl := 1; lvl < manifest.NumLevels; lvl++ {
		files := ver.Levels[lvl]
		idx := sort.Search(len(files), func(i int) bool {
			return string(base.UserKey(files[i].Largest)) >= string(key)
		})
		if idx >= len(files) || !files[idx].Overlaps(key, key) {
			continue
		}
		v, kind, err := d.tableGet(files[idx].FileNum, key, seq)
		if err == nil {
			if kind == base.KindDelete {
				return nil, ErrNotFound
			}
			return v, nil
		}
		if !errors.Is(err, ErrNotFound) {
			return nil, err
		}
	}
	return nil, ErrNotFound
}

func (d *DB) tableGet(fileNum uint64, key []byte, seq base.SeqNum) ([]byte, base.Kind, error) {
	e, err := d.tables.get(fileNum)
	if err != nil {
		return nil, 0, d.wrapIntegrityErr(fileNum, err)
	}
	v, kind, err := e.reader.Get(key, seq)
	d.tables.release(e)
	if err != nil {
		if errors.Is(err, sstable.ErrNotFound) {
			return nil, 0, ErrNotFound
		}
		return nil, 0, d.wrapIntegrityErr(fileNum, err)
	}
	return v, kind, nil
}

// typeIntegrityErr types a failed-authentication error as *IntegrityError,
// attributing it to the SST it came from. Non-integrity errors pass through
// unchanged.
func (d *DB) typeIntegrityErr(fileNum uint64, err error) error {
	return sstIntegrityErr(sstFileName(d.dir, fileNum), err)
}

// sstIntegrityErr is typeIntegrityErr for a caller that has the file's name.
func sstIntegrityErr(name string, err error) error {
	if err == nil || !errors.Is(err, vfs.ErrIntegrity) {
		return err
	}
	var ie *IntegrityError
	if errors.As(err, &ie) {
		return err
	}
	return &IntegrityError{Path: name, Kind: FileKindSST, Detail: "block failed authentication", Err: err}
}

// wrapIntegrityErr is typeIntegrityErr plus quarantine: the offending SST
// is dropped from the live version so the tree degrades instead of failing
// the same read forever. Must be called without d.mu held.
func (d *DB) wrapIntegrityErr(fileNum uint64, err error) error {
	if err == nil || !errors.Is(err, vfs.ErrIntegrity) {
		return err
	}
	d.quarantineIntegrity(fileNum)
	return d.typeIntegrityErr(fileNum, err)
}

// quarantineIntegrity drops an SST whose contents failed authentication
// from the live version and moves the file into lost/ (preserving the
// evidence). Its keys subsequently read as absent — the same degraded
// semantics as best-effort recovery — instead of every read failing. Files
// feeding an in-flight compaction are left in place (the compaction will
// surface its own integrity error); the read that triggered this still
// fails closed either way.
func (d *DB) quarantineIntegrity(fileNum uint64) {
	if d.opts.ReadOnly {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.integrityBad[fileNum] || d.held.files[fileNum] {
		return
	}
	level := -1
	for lvl := range d.current.Levels {
		for _, f := range d.current.Levels[lvl] {
			if f.FileNum == fileNum {
				level = lvl
				break
			}
		}
	}
	if level < 0 {
		return
	}
	d.integrityBad[fileNum] = true
	name := sstFileName(d.dir, fileNum)
	d.opts.Logger("lsm: quarantining %s: contents failed authentication", name)
	edit := &manifest.VersionEdit{Deleted: []manifest.DeletedFile{{Level: level, FileNum: fileNum}}}
	if err := d.applyEditLocked(edit); err != nil {
		d.opts.Logger("lsm: recording quarantine of %s: %v", name, err)
		delete(d.integrityBad, fileNum)
		return
	}
	// Retag the zombie applyEditLocked queued: preserve the ciphertext in
	// lost/ and keep its DEK resolvable for forensics.
	for i := range d.zombies {
		if d.zombies[i].fileNum == fileNum {
			d.zombies[i].quarantine = true
		}
	}
	metrics.Recovery.FilesQuarantined.Add(1)
}

// NewIter returns an iterator over a consistent snapshot of the database.
func (d *DB) NewIter() (*Iterator, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	seq := base.SeqNum(d.lastSeq.Load())
	var iters []internalIterator
	iters = append(iters, d.mem.iter())
	for i := len(d.imm) - 1; i >= 0; i-- {
		iters = append(iters, d.imm[i].iter())
	}
	ver := d.current
	for _, f := range ver.Levels[0] {
		it, err := d.openTableIter(f.FileNum)
		if err != nil {
			for _, o := range iters {
				o.Close()
			}
			return nil, err
		}
		iters = append(iters, it)
	}
	for lvl := 1; lvl < manifest.NumLevels; lvl++ {
		if len(ver.Levels[lvl]) == 0 {
			continue
		}
		var handles []fileHandle
		for _, f := range ver.Levels[lvl] {
			num := f.FileNum
			handles = append(handles, fileHandle{
				open:    func() (internalIterator, error) { return d.openTableIter(num) },
				largest: f.Largest,
			})
		}
		iters = append(iters, newConcatIter(handles))
	}
	d.iterCount++
	it := &Iterator{
		m:   newMergingIter(iters...),
		seq: seq,
		onClose: func() {
			d.mu.Lock()
			d.iterCount--
			if d.iterCount == 0 {
				d.deleteObsoleteLocked()
			}
			d.mu.Unlock()
		},
	}
	return it, nil
}

// openTableIter opens an iterator over one SST. Called with d.mu held (from
// NewIter) or lazily from concat iterators, so integrity failures are typed
// here but quarantined later, by the read that surfaces them.
func (d *DB) openTableIter(fileNum uint64) (internalIterator, error) {
	e, err := d.tables.get(fileNum)
	if err != nil {
		return nil, d.typeIntegrityErr(fileNum, err)
	}
	wrap := func(err error) error { return d.typeIntegrityErr(fileNum, err) }
	return &sstIterAdapter{it: e.reader.NewIter(), tables: d.tables, entry: e, wrapErr: wrap}, nil
}
