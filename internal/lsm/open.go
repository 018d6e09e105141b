package lsm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shield/internal/cache"
	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/wal"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// Open opens (creating if necessary) the database in dir.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.FS == nil {
		return nil, fmt.Errorf("lsm: Options.FS is required")
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	d := &DB{
		opts:         opts,
		dir:          dir,
		fs:           opts.FS,
		wrapper:      opts.Wrapper,
		held:         inFlight{files: make(map[uint64]bool)},
		integrityBad: make(map[uint64]bool),
	}
	d.bgCond = sync.NewCond(&d.mu)
	d.commit.init()
	if opts.BlockCacheSize > 0 {
		d.blockCache = cache.New(opts.BlockCacheSize)
	}
	d.tables = newTableCache(d.fs, dir, d.wrapper, d.blockCache)

	if err := d.recover(); err != nil {
		d.closeRecovered()
		return nil, err
	}

	d.mu.Lock()
	d.maybeScheduleFlushLocked()
	d.maybeScheduleCompactionLocked()
	d.mu.Unlock()
	return d, nil
}

// ---- Recovery ----

// recover is Open's side of the recovery pass (recover.go). It adds the
// time of each stage it completes to metrics.Recovery.
func (d *DB) recover() error {
	start := time.Now()
	lap := func(stage *atomic.Int64) {
		now := time.Now()
		stage.Add(now.Sub(start).Nanoseconds())
		start = now
	}
	_, err := d.fs.Stat(currentFileName(d.dir))
	switch {
	case errors.Is(err, vfs.ErrNotFound):
		if d.opts.ReadOnly {
			return fmt.Errorf("lsm: read-only open of missing database: %w", err)
		}
		if err := d.createNew(); err != nil {
			return err
		}
		lap(&metrics.Recovery.InstallNanos)
		return nil
	case err != nil:
		return err
	}

	st, err := loadStore(&d.opts, d.dir, false, nil)
	if err != nil {
		return err
	}
	// Fail closed if the store's epoch has moved backwards relative to the
	// floor sealed outside the data directory (snapshot rollback).
	if d.epoch, _, err = checkEpoch(&d.opts, st.epoch); err != nil {
		return err
	}
	d.logNum = st.logNum
	d.lastSeq.Store(uint64(st.lastSeq))
	for _, files := range st.ver.Levels {
		for _, f := range files {
			if f.Seq > d.fileSeq {
				d.fileSeq = f.Seq
			}
		}
	}

	lap(&metrics.Recovery.LoadNanos)

	// Replay the live WALs, oldest first, into a memtable before the tables
	// are judged or anything is written: a log that cannot be read (one only
	// Migrate reads, or whose key is unresolvable) fails the open with the
	// store as it was. walkStore's orphans are the tables the recovered
	// manifest does not reference; the flush of what replay recovers creates
	// its table only after this walk.
	wals, orphans, err := walkStore(d.fs, d.dir, st)
	if err != nil {
		return err
	}
	d.nextFileNum = st.nextFile
	recovered := newMemTable(0)
	var maxSeq base.SeqNum
	replay := func(seq base.SeqNum, kind base.Kind, key, value []byte) error {
		recovered.add(seq, kind, key, value)
		maxSeq = max(maxSeq, seq)
		return nil
	}
	for _, n := range wals {
		res, err := readWAL(&d.opts, walFileName(d.dir, n), replay)
		if err != nil {
			return err
		}
		metrics.Recovery.WALRecordsReplayed.Add(res.records)
		if res.noHeader {
			d.opts.Logger("lsm: WAL %d has no readable header; treating as empty", n)
		}
		if res.torn != nil {
			d.opts.Logger("lsm: WAL %d truncated at corrupt record: %v", n, res.torn)
			metrics.Recovery.WALTailTruncations.Add(1)
		}
	}
	lap(&metrics.Recovery.ReplayNanos)

	// Verify every SST the manifest references before trusting the version:
	// a missing or corrupt file either fails the open with a typed error or,
	// under BestEffortRecovery, is quarantined and dropped.
	if d.current, err = verifyTables(d.dir, st.ver, d.opts.MaxBackgroundJobs, d.checkTable, d.judgeTable); err != nil {
		return err
	}
	lap(&metrics.Recovery.TablesNanos)

	// A writable open removes every table the recovered manifest does not
	// reference: the output of a flush or compaction whose edit never became
	// durable or failed to install. No version will ever name it.
	if !d.opts.ReadOnly {
		for _, o := range orphans {
			if o.kind == FileKindSST {
				d.removeOrphanSST(o.name)
			}
		}
		// Roll the verified state into a fresh MANIFEST (compacting the edit
		// history) under a new freshness epoch.
		d.epoch++
		d.manifestNum = d.allocFileNum()
		snap := snapshotEdit(d.current, d.nextFileNum, d.lastSeq.Load(), d.logNum, d.epoch)
		if d.manifestW, err = installSnapshot(&d.opts, d.dir, d.manifestNum, snap); err != nil {
			return err
		}
	}
	lap(&metrics.Recovery.InstallNanos)

	if uint64(maxSeq) > d.lastSeq.Load() {
		d.lastSeq.Store(uint64(maxSeq))
	}

	if d.opts.ReadOnly {
		// Serve the replayed WAL contents from the memtable; write nothing.
		d.mem = recovered
		return nil
	}

	// Start a fresh WAL + memtable; flush recovered data straight to L0.
	if err := d.startNewLogLocked(); err != nil {
		return err
	}
	// The edit persists the new log number, so old WALs are not replayed
	// twice.
	ln := d.logNum
	edit := &manifest.VersionEdit{LogNumber: &ln}
	if !recovered.empty() {
		meta, err := d.writeMemTable(recovered)
		if err != nil {
			return err
		}
		edit.Added = []manifest.AddedFile{{Level: 0, Meta: *meta}}
	}
	if err := d.applyEditLocked(edit); err != nil {
		return err
	}
	d.deleteObsoleteLocked()
	lap(&metrics.Recovery.ReplayNanos)
	return nil
}

// closeRecovered releases what a failed recover opened: the tables it
// verified or checked ahead of the failure, and the WAL and MANIFEST
// writers it created. No background job has started yet.
func (d *DB) closeRecovered() {
	if d.walWriter != nil {
		d.walWriter.Close()
	}
	if d.manifestW != nil {
		d.manifestW.Close()
	}
	d.tables.close()
}

// removeOrphanSST deletes a table no version names. It is opened through the
// wrapper first, so that the wrapper learns the table's DEK from its header
// and FileDeleted releases it: a table a previous process created has no DEK
// this process knows of. A table whose key cannot be resolved is removed all
// the same.
func (d *DB) removeOrphanSST(name string) {
	if raw, err := d.fs.Open(name); err == nil {
		if f, err := d.wrapper.WrapOpen(name, FileKindSST, raw); err == nil {
			f.Close()
		} else {
			raw.Close()
		}
	}
	if d.fs.Remove(name) == nil {
		d.wrapper.FileDeleted(name, "")
	}
}

func (d *DB) createNew() error {
	// An empty directory where a sealed epoch floor says a store used to be
	// is the extreme rollback: the whole tree vanished. Fail closed.
	epoch, _, err := checkEpoch(&d.opts, 0)
	if err != nil {
		return err
	}
	d.epoch = epoch + 1
	d.current = &manifest.Version{}
	d.nextFileNum = 1
	d.manifestNum = d.allocFileNum()
	if err := d.startNewLogLocked(); err != nil {
		return err
	}
	snap := snapshotEdit(d.current, d.nextFileNum, 0, d.logNum, d.epoch)
	d.manifestW, err = installSnapshot(&d.opts, d.dir, d.manifestNum, snap)
	return err
}

// checkTable is Open's check of one table, safe to run concurrently:
// without ParanoidChecks the file must exist and have a readable footer and
// index (opening it into the table cache verifies those checksums); with
// ParanoidChecks it gets the full checkSST, the check Scrub runs.
func (d *DB) checkTable(name string, f *manifest.FileMetadata) tableCheck {
	if d.opts.ParanoidChecks {
		blocks, _, err := checkSST(d.fs, d.wrapper, name, f)
		return tableCheck{blocks: blocks, err: err}
	}
	e, err := d.tables.get(f.FileNum)
	if err != nil {
		return tableCheck{err: err}
	}
	d.tables.release(e)
	return tableCheck{}
}

// judgeTable is Open's side of the table verdict. A table that is not ok
// fails the open, unless it is missing or provably corrupt and
// BestEffortRecovery is set: then it is dropped, and a corrupt one is
// quarantined when the DB is writable. An unverifiable table (e.g. an
// unreachable KDS left its DEK unresolvable) always fails the open: an
// unverifiable file is not a corrupt one.
func (d *DB) judgeTable(name string, f *manifest.FileMetadata, c tableCheck) (drop bool, err error) {
	metrics.Recovery.ScrubBlocksVerified.Add(c.blocks)
	v := verdictOf(c.err)
	switch v {
	case tableOK:
		return false, nil
	case tableUnverifiable:
		return false, fmt.Errorf("lsm: verifying %s: %w", name, c.err)
	}
	if !d.opts.BestEffortRecovery {
		return false, &CorruptionError{Path: name, Kind: FileKindSST, Detail: "failed open-time verification", Err: c.err}
	}
	d.opts.Logger("lsm: best-effort recovery dropping %s: %v", name, c.err)
	d.tables.evict(f.FileNum)
	if v == tableCorrupt && !d.opts.ReadOnly {
		d.quarantine(name)
	}
	metrics.Recovery.FilesQuarantined.Add(1)
	return true, nil
}

func (d *DB) allocFileNum() uint64 {
	n := d.nextFileNum
	d.nextFileNum++
	return n
}

// newFileNum is the allocator compaction outputs take their numbers from
// as they are created, the way a flush takes its own: allocFileNum under
// d.mu, so concurrent shards never share a number.
func (d *DB) newFileNum() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocFileNum(), nil
}

// quarantine moves a corrupt file into <dir>/lost/ where recovery and scans
// cannot see it, preserving the evidence instead of deleting it.
func (d *DB) quarantine(name string) {
	if err := quarantineFile(d.fs, d.dir, name); err != nil {
		d.opts.Logger("lsm: quarantining %s: %v", name, err)
	}
}

// startNewLogLocked creates a fresh WAL file and active memtable.
//
//shield:nolockio WAL rotation must swap the log file and memtable atomically under d.mu — commit order depends on it — and runs once per flush, not per write
func (d *DB) startNewLogLocked() error {
	num := d.allocFileNum()
	name := walFileName(d.dir, num)
	raw, err := d.fs.Create(name)
	if err != nil {
		return err
	}
	wrapped, _, err := d.wrapper.WrapCreate(name, FileKindWAL, raw)
	if err != nil {
		raw.Close()
		return err
	}
	// Make the WAL's directory entry durable now: records synced into it
	// later are worthless if the file itself vanishes with the power.
	if err := d.fs.SyncDir(d.dir); err != nil {
		wrapped.Close()
		return err
	}
	d.walWriter = wal.NewWriter(wrapped)
	d.logNum = num
	d.mem = newMemTable(num)
	return nil
}
