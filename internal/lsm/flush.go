package lsm

import (
	"encoding/hex"

	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// sstOutput is the one way an SST comes into being. A flush and every
// compaction shard, in this process or on an offloaded worker, make their
// tables through it: createSSTOutput, entries added straight to w, then
// finish; and after any failure, at any point from a half-written table to a
// finished one whose job later fails, abort.
type sstOutput struct {
	fs      vfs.FS
	wrapper FileWrapper
	name    string
	// file is the wrapper's writer; a sealed one exposes the tag-chain digest
	// once the table is finished.
	file vfs.WritableFile
	// w takes the entries. Callers Add to it directly, so the per-key path is
	// the table writer's own.
	w *sstable.Writer
	// meta describes the table: number and DEK-ID from the start, the rest
	// (but for Seq, which is the caller's) once finished.
	meta manifest.FileMetadata
}

// createSSTOutput creates the file numbered fileNum in dir, has wrapper wrap
// it (under SHIELD: a fresh DEK and the header that carries its ID) and starts
// a table of format topts on it.
//
//shield:nosyncdir outputs become durable as a set: the flush, or RunCompaction once every shard has finished, syncs the directory a single time before the manifest edit installs
func createSSTOutput(fs vfs.FS, wrapper FileWrapper, dir string, fileNum uint64, topts sstable.WriterOptions) (*sstOutput, error) {
	name := sstFileName(dir, fileNum)
	raw, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	wrapped, dekID, err := wrapper.WrapCreate(name, FileKindSST, raw)
	if err != nil {
		// The raw file exists, but no output the caller could abort: remove it
		// here. The wrapper releases whatever it registered before failing.
		raw.Close()
		fs.Remove(name)
		return nil, err
	}
	return &sstOutput{
		fs: fs, wrapper: wrapper, name: name, file: wrapped,
		w:    sstable.NewWriter(wrapped, topts),
		meta: manifest.FileMetadata{FileNum: fileNum, DEKID: dekID},
	}, nil
}

// finish completes the table (index, footer, sync, close) and fills in meta.
// The file's directory entry is not yet durable: the caller syncs the
// directory, once for all the outputs of its job, before the manifest edit
// that references them.
func (o *sstOutput) finish() error {
	if err := o.w.Finish(); err != nil {
		return err
	}
	o.meta.Size = o.w.FileSize()
	o.meta.Smallest = o.w.Smallest()
	o.meta.Largest = o.w.Largest()
	o.meta.Digest = fileDigest(o.file)
	return nil
}

// abort discards the output, finished or not: the handle is closed if it is
// still open, then the file is removed, and only then is the wrapper told,
// so the DEK is released (and under RevokeOnDelete revoked) after the bytes it
// protects are gone. The source the table was built from (a memtable, the
// compaction inputs) stays authoritative.
func (o *sstOutput) abort() {
	o.w.Abort()
	o.fs.Remove(o.name)
	o.wrapper.FileDeleted(o.name, o.meta.DEKID)
}

// ---- Flush ----

func (d *DB) maybeScheduleFlushLocked() {
	if d.opts.ReadOnly {
		return
	}
	if d.flushing || d.closed || d.bgErr != nil || len(d.imm) == 0 {
		return
	}
	d.flushing = true
	go d.flushWorker()
}

func (d *DB) flushWorker() {
	for {
		d.mu.Lock()
		if len(d.imm) == 0 || d.bgErr != nil || d.closed {
			d.flushing = false
			waiters := d.flushWaiters
			d.flushWaiters = nil
			// A waiter gets what every write-path call returns once the DB
			// is poisoned: the cause wrapped in ErrDegraded, also when a
			// compaction, not this flush, poisoned it.
			var err error
			if d.bgErr != nil {
				err = errDegraded(d.bgErr)
			}
			d.maybeScheduleCompactionLocked()
			d.bgCond.Broadcast()
			d.mu.Unlock()
			for _, w := range waiters {
				w <- err
			}
			return
		}
		mem := d.imm[0]
		d.mu.Unlock()

		meta, err := d.writeMemTable(mem)
		if err != nil {
			d.setBGErr(err)
			continue
		}

		d.mu.Lock()
		edit := &manifest.VersionEdit{}
		if meta != nil {
			edit.Added = []manifest.AddedFile{{Level: 0, Meta: *meta}}
		}
		// All WALs older than the next surviving memtable are obsolete.
		var minLog uint64
		if len(d.imm) > 1 {
			minLog = d.imm[1].logNum
		} else {
			minLog = d.mem.logNum
		}
		edit.LogNumber = &minLog
		if err := d.applyEditLocked(edit); err != nil {
			d.mu.Unlock()
			d.setBGErr(err)
			continue
		}
		d.imm = d.imm[1:]
		d.metFlushes.Add(1)
		// A flush wrote a full SST: space is available again, so resume any
		// compactions halted by an earlier ENOSPC abort.
		d.compactionsHalted = false
		d.deleteObsoleteLocked()
		d.maybeScheduleCompactionLocked()
		d.bgCond.Broadcast()
		d.mu.Unlock()
	}
}

// fileDigest extracts the tag-chain digest from a finalized sealed SST
// handle (the wrapper's encrypting writer exposes it after Finish/Close).
// Empty when the file carries no authentication: encryption is off (the
// encrypting wrapper writes every table sealed).
func fileDigest(f vfs.WritableFile) string {
	dw, ok := f.(interface{ FileDigest() ([]byte, bool) })
	if !ok {
		return ""
	}
	sum, ok := dw.FileDigest()
	if !ok {
		return ""
	}
	return hex.EncodeToString(sum)
}

// writeMemTable persists mem as an L0 table. Returns nil meta for an empty
// memtable.
func (d *DB) writeMemTable(mem *memTable) (*manifest.FileMetadata, error) {
	if mem.empty() {
		return nil, nil
	}
	d.mu.Lock()
	fileNum := d.allocFileNum()
	d.fileSeq++
	seq := d.fileSeq
	d.mu.Unlock()

	// On any failure below the partial SST is removed, releasing its disk
	// space and DEK registration; the memtable it was built from is retained
	// and the caller poisons the DB, so no data is lost.
	out, err := createSSTOutput(d.fs, d.wrapper, d.dir, fileNum, d.opts.tableOptions())
	if err != nil {
		return nil, err
	}
	it := mem.iter()
	for ok := it.First(); ok; ok = it.Next() {
		if err := out.w.Add(it.Key(), it.Value()); err != nil {
			out.abort()
			return nil, err
		}
	}
	err = out.finish()
	if err == nil {
		// The SST's directory entry must be durable before the manifest edit
		// that references it is; otherwise a crash leaves a manifest pointing
		// at a file that never existed.
		err = d.fs.SyncDir(d.dir)
	}
	if err != nil {
		out.abort()
		return nil, err
	}
	out.meta.Seq = seq
	d.metFlushWrite.Add(int64(out.meta.Size))
	return &out.meta, nil
}

// rotateMemtable seals a non-empty active memtable behind a fresh WAL. It
// runs only on the commit-pipeline leader, so it never races WAL appends.
func (d *DB) rotateMemtable() error {
	d.mu.Lock()
	if d.mem.empty() {
		d.mu.Unlock()
		return nil
	}
	return d.rotateAndUnlock()
}

// rotateAndUnlock is the one memtable rotation, of Flush and of a full
// memtable alike: it seals the active memtable, starts a fresh WAL,
// schedules the flush, releases d.mu, and closes the old WAL. Closing it
// writes what its buffer still holds, so a failure there, like one starting
// the new WAL, may have lost acknowledged writes from the log: it poisons
// the DB and returns ErrDegraded. Called with d.mu held, on the
// commit-pipeline leader.
func (d *DB) rotateAndUnlock() error {
	old := d.walWriter
	d.imm = append(d.imm, d.mem)
	if err := d.startNewLogLocked(); err != nil {
		d.setBGErrLocked(err)
		d.mu.Unlock()
		return errDegraded(err)
	}
	d.maybeScheduleFlushLocked()
	d.mu.Unlock()
	if old != nil {
		if err := old.Close(); err != nil {
			d.setBGErr(err)
			return errDegraded(err)
		}
	}
	return nil
}

// Flush forces the active memtable to disk and waits for all pending
// flushes to finish.
func (d *DB) Flush() error {
	if d.opts.ReadOnly {
		return ErrReadOnly
	}
	if err := d.commitSend(&commitWaiter{rotate: true}); err != nil {
		return err
	}
	d.mu.Lock()
	// Degraded check while holding d.mu, not before: a background flush
	// can poison the engine between the rotate above and this point, after
	// which no flush worker will ever run again — a waiter registered now
	// would block forever. Under d.mu the cases are exhaustive: bgErr set
	// (fail fast here), a live worker (it drains waiters on exit), or no
	// worker and a clean engine (maybeScheduleFlushLocked starts one).
	if d.bgErr != nil {
		err := d.bgErr
		d.mu.Unlock()
		return errDegraded(err)
	}
	if len(d.imm) == 0 {
		d.mu.Unlock()
		return nil
	}
	ch := make(chan error, 1)
	d.flushWaiters = append(d.flushWaiters, ch)
	d.maybeScheduleFlushLocked()
	d.mu.Unlock()
	return <-ch
}
