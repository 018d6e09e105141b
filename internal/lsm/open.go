package lsm

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"shield/internal/cache"
	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
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
		dekIDs:       make(map[uint64]string),
		integrityBad: make(map[uint64]bool),
	}
	d.bgCond = sync.NewCond(&d.mu)
	d.commit.init()
	if opts.BlockCacheSize > 0 {
		d.blockCache = cache.New(opts.BlockCacheSize)
	}
	d.tables = newTableCache(d.fs, dir, d.wrapper, d.blockCache)

	start := time.Now()
	if err := d.recover(); err != nil {
		return nil, err
	}
	metrics.Recovery.RecoveryNanos.Add(time.Since(start).Nanoseconds())

	d.mu.Lock()
	d.maybeScheduleFlushLocked()
	d.maybeScheduleCompactionLocked()
	d.mu.Unlock()
	return d, nil
}

// ---- Recovery ----

func (d *DB) recover() error {
	currentName := currentFileName(d.dir)
	_, err := d.fs.Stat(currentName)
	switch {
	case errors.Is(err, vfs.ErrNotFound):
		if d.opts.ReadOnly {
			return fmt.Errorf("lsm: read-only open of missing database: %w", err)
		}
		return d.createNew()
	case err != nil:
		return err
	}

	// Load CURRENT -> MANIFEST name (+ the optional epoch echo).
	data, err := readCurrent(d.fs, d.wrapper, d.dir)
	if err != nil {
		return fmt.Errorf("lsm: reading CURRENT: %w", err)
	}
	manifestName, curEpoch := parseCurrent(data)
	num, ok := parseManifestName(manifestName)
	if !ok {
		return &CorruptionError{
			Path:   currentName,
			Kind:   FileKindCurrent,
			Detail: fmt.Sprintf("points to invalid manifest %q", manifestName),
		}
	}
	d.manifestNum = num

	st, err := loadManifestFrom(d.fs, d.wrapper, d.dir, manifestName)
	if err != nil {
		return err
	}
	ver, logNum := st.ver, st.logNum
	d.current = ver
	d.logNum = logNum
	d.nextFileNum = st.nextFile
	if d.manifestNum >= d.nextFileNum {
		d.nextFileNum = d.manifestNum + 1
	}
	d.lastSeq.Store(uint64(st.lastSeq))

	// CURRENT echoes the epoch of the manifest it points at; a manifest
	// carrying an older epoch than its own CURRENT claims was swapped in
	// after the fact.
	if st.epoch < curEpoch {
		return &IntegrityError{
			Path: currentName, Kind: FileKindCurrent,
			Detail: fmt.Sprintf("manifest epoch %d older than CURRENT epoch %d (manifest replaced?)", st.epoch, curEpoch),
		}
	}
	// Fail closed if the store's epoch has moved backwards relative to the
	// floor sealed outside the data directory (snapshot rollback).
	if err := d.checkEpoch(st.epoch); err != nil {
		return err
	}

	for _, files := range ver.Levels {
		for _, f := range files {
			if f.DEKID != "" {
				d.dekIDs[f.FileNum] = f.DEKID
			}
			if f.Seq > d.fileSeq {
				d.fileSeq = f.Seq
			}
		}
	}

	// Verify every SST the manifest references before trusting the version:
	// a missing or corrupt file either fails the open with a typed error or,
	// under BestEffortRecovery, is quarantined and dropped.
	if err := d.verifyTables(); err != nil {
		return err
	}

	if !d.opts.ReadOnly {
		// Roll the verified state into a fresh MANIFEST (compacting the edit
		// history) and only then repoint CURRENT — never before the new
		// manifest's snapshot record is durable. The new manifest generation
		// advances the freshness epoch; the floor is sealed only after the
		// manifest carrying the epoch is durable, so a crash in between
		// leaves floor <= manifest epoch (safe, never falsely regressive).
		d.epoch++
		d.manifestNum = d.allocFileNum()
		if err := d.createManifestFile(); err != nil {
			return err
		}
		if err := d.writeSnapshotLocked(d.current, logNum); err != nil {
			return err
		}
		if err := installCurrent(d.fs, d.wrapper, d.dir, d.manifestNum, d.epoch); err != nil {
			return err
		}
		d.sealEpoch()
	}

	// Replay WALs >= logNum, oldest first. A writable open also removes
	// every table the recovered version does not reference: the output of a
	// flush or compaction whose edit never became durable or failed to
	// install. No version will ever name it, and WAL replay below creates
	// its tables only after this walk.
	live := map[uint64]bool{}
	for _, files := range d.current.Levels {
		for _, f := range files {
			live[f.FileNum] = true
		}
	}
	entries, err := d.fs.List(d.dir)
	if err != nil {
		return err
	}
	var walNums []uint64
	for _, e := range entries {
		kind, n, ok := parseFileName(e.Name)
		if !ok {
			continue
		}
		// The manifest's NextFileNumber can lag files created after the
		// last edit (e.g. a WAL rotated right before a crash); clear them.
		if kind != FileKindCurrent && n >= d.nextFileNum {
			d.nextFileNum = n + 1
		}
		if kind == FileKindWAL && n >= d.logNum {
			walNums = append(walNums, n)
		}
		if kind == FileKindSST && !live[n] && !d.opts.ReadOnly {
			name := path.Join(d.dir, e.Name)
			if err := d.fs.Remove(name); err == nil {
				d.wrapper.FileDeleted(name, "")
			}
		}
	}
	sort.Slice(walNums, func(i, j int) bool { return walNums[i] < walNums[j] })

	recovered := newMemTable(0)
	for _, n := range walNums {
		if err := d.replayWAL(n, recovered); err != nil {
			return err
		}
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
	if !recovered.empty() {
		meta, err := d.writeMemTable(recovered)
		if err != nil {
			return err
		}
		edit := &manifest.VersionEdit{
			Added: []manifest.AddedFile{{Level: 0, Meta: *meta}},
		}
		ln := d.logNum
		edit.LogNumber = &ln
		if err := d.applyEditLocked(edit); err != nil {
			return err
		}
	} else {
		// Persist the new log number so old WALs are not replayed twice.
		edit := &manifest.VersionEdit{}
		ln := d.logNum
		edit.LogNumber = &ln
		if err := d.applyEditLocked(edit); err != nil {
			return err
		}
	}
	d.deleteObsoleteLocked()
	return nil
}

func parseManifestName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "MANIFEST-") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(name, "MANIFEST-"), 10, 64)
	return n, err == nil
}

func (d *DB) createNew() error {
	// An empty directory where a sealed epoch floor says a store used to be
	// is the extreme rollback: the whole tree vanished. Fail closed.
	if err := d.checkEpoch(0); err != nil {
		return err
	}
	d.epoch++
	d.current = &manifest.Version{}
	d.nextFileNum = 1
	d.manifestNum = d.allocFileNum()
	if err := d.createManifestFile(); err != nil {
		return err
	}
	if err := d.startNewLogLocked(); err != nil {
		return err
	}
	edit := &manifest.VersionEdit{Epoch: d.epoch}
	ln := d.logNum
	edit.LogNumber = &ln
	if err := d.applyEditLocked(edit); err != nil {
		return err
	}
	// Only after the first edit is durable in the manifest does CURRENT get
	// installed: a CURRENT pointing at an empty manifest would read as an
	// empty database, silently discarding anything recovered later.
	if err := installCurrent(d.fs, d.wrapper, d.dir, d.manifestNum, d.epoch); err != nil {
		return err
	}
	d.sealEpoch()
	return nil
}

// checkEpoch validates the recovered manifest epoch against the sealed
// floor and initializes d.epoch to the larger of the two. A recovered epoch
// below the floor proves the persistent state was rolled back to an older
// snapshot; open fails closed unless Options.AllowRollback acknowledges it.
func (d *DB) checkEpoch(recovered uint64) error {
	d.epoch = recovered
	if d.opts.Freshness == nil {
		return nil
	}
	floor, sealed := d.opts.Freshness.EpochFloor()
	if sealed && recovered < floor {
		err := fmt.Errorf("%w: recovered epoch %d below sealed floor %d", ErrEpochRegression, recovered, floor)
		if !d.opts.AllowRollback {
			return err
		}
		d.opts.Logger("lsm: accepting rollback (AllowRollback): %v", err)
	}
	if floor > d.epoch {
		d.epoch = floor
	}
	return nil
}

// sealEpoch records d.epoch as the new floor in the freshness store. A
// failure to seal is logged, not fatal: the floor merely stays at an older
// (still valid) value, so detection strength degrades but correctness does
// not — floor <= manifest epoch always holds.
func (d *DB) sealEpoch() {
	if d.opts.Freshness == nil {
		return
	}
	if err := d.opts.Freshness.SealEpoch(d.epoch); err != nil {
		d.opts.Logger("lsm: sealing freshness epoch %d: %v", d.epoch, err)
	}
}

func (d *DB) allocFileNum() uint64 {
	n := d.nextFileNum
	d.nextFileNum++
	return n
}

// createManifestFile creates the MANIFEST numbered d.manifestNum and points
// d.manifestW at it. It does NOT touch CURRENT — callers must write (and
// sync) at least one edit, then installCurrent, in that order: repointing
// CURRENT at a manifest with no durable records is a crash window that loses
// the whole tree.
//
//shield:nosyncdir durability is deliberately sequenced by the caller: a synced edit first, then installCurrent syncs the directory
func (d *DB) createManifestFile() error {
	name := manifestFileName(d.dir, d.manifestNum)
	raw, err := d.fs.Create(name)
	if err != nil {
		return err
	}
	wrapped, _, err := d.wrapper.WrapCreate(name, FileKindManifest, raw)
	if err != nil {
		raw.Close()
		return err
	}
	d.manifestW = wal.NewWriter(wrapped)
	return nil
}

// installCurrent atomically repoints CURRENT at manifestNum: write a synced
// tmp file through w, rename over CURRENT, and sync the directory so both
// the rename and the manifest file's entry survive power loss. epoch, when
// nonzero, is echoed on a second line so tools (and the manifest cross-check
// in recovery) can read the store's freshness epoch without replaying the
// manifest; older builds that read only the first line are unaffected.
func installCurrent(fsys vfs.FS, w FileWrapper, dir string, manifestNum uint64, epoch uint64) error {
	content := fmt.Sprintf("MANIFEST-%06d\n", manifestNum)
	if epoch > 0 {
		content += fmt.Sprintf("epoch %d\n", epoch)
	}
	name := currentFileName(dir)
	tmp := name + ".tmp"
	raw, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	f, _, err := w.WrapCreate(tmp, FileKindCurrent, raw)
	if err != nil {
		raw.Close()
		return err
	}
	if err := vfs.WriteSynced(f, []byte(content)); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, name); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// readCurrent reads CURRENT through w.
func readCurrent(fsys vfs.FS, w FileWrapper, dir string) ([]byte, error) {
	name := currentFileName(dir)
	raw, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	f, err := w.WrapOpen(name, FileKindCurrent, raw)
	if err != nil {
		raw.Close()
		return nil, err
	}
	defer f.Close()
	return vfs.ReadAll(f)
}

// parseCurrent splits a CURRENT file into the manifest name (first line)
// and the optional freshness-epoch echo ("epoch N" on the second line).
// Legacy single-line files parse with epoch 0; unrecognized trailing lines
// are ignored for forward compatibility.
func parseCurrent(data []byte) (manifestName string, epoch uint64) {
	lines := strings.Split(string(data), "\n")
	manifestName = strings.TrimSpace(lines[0])
	for _, ln := range lines[1:] {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(ln), "epoch "); ok {
			if n, err := strconv.ParseUint(rest, 10, 64); err == nil {
				epoch = n
			}
		}
	}
	return manifestName, epoch
}

// writeSnapshotLocked logs v as a single snapshot edit (the full file list
// plus bookkeeping) into the live manifest and syncs it.
func (d *DB) writeSnapshotLocked(v *manifest.Version, logNum uint64) error {
	snap := &manifest.VersionEdit{}
	for lvl := range v.Levels {
		for _, f := range v.Levels[lvl] {
			snap.Added = append(snap.Added, manifest.AddedFile{Level: lvl, Meta: *f})
		}
	}
	nf := d.nextFileNum
	ls := d.lastSeq.Load()
	ln := logNum
	snap.NextFileNumber = &nf
	snap.LastSeq = &ls
	snap.LogNumber = &ln
	snap.Epoch = d.epoch
	enc, err := snap.Encode()
	if err != nil {
		return err
	}
	if err := d.manifestW.AddRecord(enc); err != nil {
		return err
	}
	return d.manifestW.Sync()
}

// manifestState is the result of replaying one MANIFEST's edit log.
type manifestState struct {
	ver      *manifest.Version
	logNum   uint64
	nextFile uint64
	lastSeq  base.SeqNum
	epoch    uint64 // highest freshness epoch any edit carried
	torn     bool   // replay stopped at a torn tail record
	corrupt  bool   // salvage mode: replay stopped at an undecodable record
}

// loadManifestFrom replays the named MANIFEST's edit log without writing
// anything. A torn tail (crash mid-record) ends replay cleanly; a record
// that passes its checksum but fails to decode or apply is corruption and
// returns a *CorruptionError. Shared by DB recovery and Scrub.
func loadManifestFrom(fsys vfs.FS, wrapper FileWrapper, dir, name string) (*manifestState, error) {
	return loadManifestSalvage(fsys, wrapper, dir, name, false)
}

// loadManifestSalvage is loadManifestFrom with an option: when salvage is
// true, an undecodable or inconsistent record does not fail the load but
// ends replay with the valid prefix (st.corrupt set), the way fsck salvages
// what it can. Scrub uses salvage mode to rebuild a manifest around the
// damage.
func loadManifestSalvage(fsys vfs.FS, wrapper FileWrapper, dir, name string, salvage bool) (*manifestState, error) {
	full := path.Join(dir, name)
	raw, err := fsys.OpenSequential(full)
	if err != nil {
		if errors.Is(err, vfs.ErrNotFound) {
			return nil, &CorruptionError{
				Path:   full,
				Kind:   FileKindManifest,
				Detail: "CURRENT references a missing manifest",
				Err:    err,
			}
		}
		return nil, fmt.Errorf("lsm: opening manifest: %w", err)
	}
	wrapped, err := wrapper.WrapOpenSequential(full, FileKindManifest, raw)
	if err != nil {
		raw.Close()
		return nil, err
	}
	r := wal.NewReader(wrapped)
	defer r.Close()

	st := &manifestState{ver: &manifest.Version{}}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn tail on the manifest (crash during write) ends replay.
			if errors.Is(err, wal.ErrCorrupt) {
				st.torn = true
				break
			}
			return nil, err
		}
		edit, err := manifest.DecodeVersionEdit(rec)
		if err != nil {
			if salvage {
				st.corrupt = true
				break
			}
			return nil, &CorruptionError{
				Path: full, Kind: FileKindManifest,
				Detail: "undecodable version edit", Err: err,
			}
		}
		nv, err := st.ver.Apply(edit)
		if err != nil {
			if salvage {
				st.corrupt = true
				break
			}
			return nil, &CorruptionError{
				Path: full, Kind: FileKindManifest,
				Detail: "inconsistent version edit", Err: err,
			}
		}
		st.ver = nv
		if edit.LogNumber != nil {
			st.logNum = *edit.LogNumber
		}
		if edit.NextFileNumber != nil {
			st.nextFile = *edit.NextFileNumber
		}
		if edit.LastSeq != nil {
			st.lastSeq = base.SeqNum(*edit.LastSeq)
		}
		if edit.Epoch > st.epoch {
			st.epoch = edit.Epoch
		}
	}
	// nextFile must clear every referenced file.
	for _, lvl := range st.ver.Levels {
		for _, f := range lvl {
			if f.FileNum >= st.nextFile {
				st.nextFile = f.FileNum + 1
			}
		}
	}
	if st.logNum >= st.nextFile {
		st.nextFile = st.logNum + 1
	}
	return st, nil
}

// verifyTables checks every SST the current version references. Without
// ParanoidChecks a file must exist and have a readable footer/index (opening
// it verifies those checksums); with ParanoidChecks it gets the full checkSST,
// the same check Scrub runs. Corrupt or missing files fail the open with a
// *CorruptionError unless BestEffortRecovery, which quarantines them (writable
// opens) and drops them from the version. Errors that do not prove corruption
// — e.g. an unreachable KDS leaving a DEK unresolvable — always fail the open:
// an unverifiable file is not a corrupt one.
func (d *DB) verifyTables() error {
	ver := d.current
	var dropped map[uint64]bool
	for lvl := range ver.Levels {
		for _, f := range ver.Levels[lvl] {
			name := sstFileName(d.dir, f.FileNum)
			err := d.verifyTable(name, f)
			if err == nil {
				continue
			}
			if !isCorruptionErr(err) {
				return fmt.Errorf("lsm: verifying %s: %w", name, err)
			}
			cerr := &CorruptionError{Path: name, Kind: FileKindSST, Detail: "failed open-time verification", Err: err}
			if !d.opts.BestEffortRecovery {
				return cerr
			}
			d.opts.Logger("lsm: best-effort recovery dropping %s: %v", name, err)
			d.tables.evict(f.FileNum)
			if !d.opts.ReadOnly {
				d.quarantine(name)
			}
			metrics.Recovery.FilesQuarantined.Add(1)
			if dropped == nil {
				dropped = make(map[uint64]bool)
			}
			dropped[f.FileNum] = true
			delete(d.dekIDs, f.FileNum)
		}
	}
	if dropped != nil {
		nv := &manifest.Version{}
		for lvl := range ver.Levels {
			for _, f := range ver.Levels[lvl] {
				if !dropped[f.FileNum] {
					nv.Levels[lvl] = append(nv.Levels[lvl], f)
				}
			}
		}
		d.current = nv
	}
	return nil
}

// verifyTable is the open-time check of one SST.
func (d *DB) verifyTable(name string, f *manifest.FileMetadata) error {
	if d.opts.ParanoidChecks {
		blocks, _, err := checkSST(d.fs, d.wrapper, name, f)
		metrics.Recovery.ScrubBlocksVerified.Add(blocks)
		return err
	}
	_, release, err := d.tables.get(f.FileNum)
	if err != nil {
		return err
	}
	release()
	return nil
}

// checkSST is the one check of an SST against the manifest entry that names
// it, shared by the ParanoidChecks open and by Scrub so both give the same
// verdict. Opening the table verifies footer, index, filter and properties;
// every data block is then read and its checksum verified (for a sealed file
// each of those reads is an AEAD-authenticated one); last comes the hash-tree
// anchor. Per-block tags prove each block authentic under the file's DEK,
// and the digest over those tags, which the manifest recorded when the file
// was installed, proves the file is the exact one this version installed:
// an older validly-sealed version spliced back in has a different chain, and
// a file that exposes no chain at all where the manifest recorded one has
// been replaced by an unauthenticated file. Files without a manifest digest
// (format v1, encryption off) have no anchor to check.
//
// It returns the data blocks verified and whether wrapper actually
// transforms the file (it returned something other than the raw handle: the
// caller holds the key, so damage found underneath is genuine).
func checkSST(fs vfs.FS, wrapper FileWrapper, name string, meta *manifest.FileMetadata) (blocks int64, transformed bool, err error) {
	raw, err := fs.Open(name)
	if err != nil {
		return 0, false, err
	}
	wrapped, err := wrapper.WrapOpen(name, FileKindSST, raw)
	if err != nil {
		raw.Close()
		return 0, false, err
	}
	defer wrapped.Close()
	transformed = wrapped != vfs.RandomAccessFile(raw)
	r, err := sstable.NewReader(wrapped, sstable.ReaderOptions{})
	if err != nil {
		return 0, transformed, sstIntegrityErr(name, err)
	}
	blocks, err = r.VerifyChecksums()
	if err != nil || meta.Digest == "" {
		return blocks, transformed, sstIntegrityErr(name, err)
	}
	dr, ok := wrapped.(interface{ FileDigest() ([]byte, error) })
	if !ok {
		return blocks, transformed, &IntegrityError{
			Path: name, Kind: FileKindSST,
			Detail: fmt.Sprintf("manifest records digest %s but the file is not sealed (replaced with an unauthenticated file?)", meta.Digest),
		}
	}
	sum, err := dr.FileDigest()
	if err != nil {
		return blocks, transformed, sstIntegrityErr(name, err)
	}
	if got := hex.EncodeToString(sum); got != meta.Digest {
		return blocks, transformed, &IntegrityError{
			Path: name, Kind: FileKindSST,
			Detail: fmt.Sprintf("tag-chain digest %s does not match manifest digest %s (file replaced?)", got, meta.Digest),
		}
	}
	return blocks, transformed, nil
}

// isCorruptionErr reports whether err proves the file's bytes are wrong (or
// the file is missing entirely), as opposed to a transient failure to read
// or decrypt it. An authentication failure from a sealed (format v2) file
// proves tampering or rot — the GCM tag cannot fail under the right key
// unless the ciphertext changed — so vfs.ErrIntegrity counts.
func isCorruptionErr(err error) bool {
	return errors.Is(err, ErrCorruption) ||
		errors.Is(err, sstable.ErrCorruption) ||
		errors.Is(err, wal.ErrCorrupt) ||
		errors.Is(err, vfs.ErrIntegrity) ||
		errors.Is(err, vfs.ErrNotFound)
}

// quarantine moves a corrupt file into <dir>/lost/ where recovery and scans
// cannot see it, preserving the evidence instead of deleting it.
func (d *DB) quarantine(name string) {
	if err := quarantineFile(d.fs, d.dir, name); err != nil {
		d.opts.Logger("lsm: quarantining %s: %v", name, err)
	}
}

// quarantineFile moves name into <dir>/lost/, durably. The lost/ directory
// is invisible to recovery and scans (List only returns a directory's direct
// file entries), so quarantined files cannot resurrect.
func quarantineFile(fsys vfs.FS, dir, name string) error {
	lostDir := path.Join(dir, "lost")
	if err := fsys.MkdirAll(lostDir); err != nil {
		return err
	}
	dst := path.Join(lostDir, path.Base(name))
	if err := fsys.Rename(name, dst); err != nil {
		return err
	}
	if err := fsys.SyncDir(lostDir); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

func (d *DB) replayWAL(num uint64, mem *memTable) error {
	name := walFileName(d.dir, num)
	raw, err := d.fs.OpenSequential(name)
	if err != nil {
		return err
	}
	wrapped, err := d.wrapper.WrapOpenSequential(name, FileKindWAL, raw)
	if err != nil {
		raw.Close()
		// A WAL whose header never reached storage (crash or an unflushed
		// remote write buffer) is an empty log — the same torn-tail case
		// the record reader already tolerates.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			d.opts.Logger("lsm: WAL %d has no readable header; treating as empty", num)
			return nil
		}
		return err
	}
	r := wal.NewReader(wrapped)
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				// Torn tail from a crash: recover everything before it.
				d.opts.Logger("lsm: WAL %d truncated at corrupt record: %v", num, err)
				metrics.Recovery.WALTailTruncations.Add(1)
				return nil
			}
			return err
		}
		var maxSeq base.SeqNum
		err = decodeBatch(rec, func(seq base.SeqNum, kind base.Kind, key, value []byte) error {
			mem.add(seq, kind, key, value)
			maxSeq = seq
			return nil
		})
		if err != nil {
			// The record passed its checksum but holds an undecodable batch:
			// that is corruption, not a torn tail.
			return &CorruptionError{Path: name, Kind: FileKindWAL, Detail: "undecodable batch", Err: err}
		}
		metrics.Recovery.WALRecordsReplayed.Add(1)
		if uint64(maxSeq) > d.lastSeq.Load() {
			d.lastSeq.Store(uint64(maxSeq))
		}
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
	wrapped, dekID, err := d.wrapper.WrapCreate(name, FileKindWAL, raw)
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
	d.walDEKID = dekID
	d.logNum = num
	d.mem = newMemTable(num)
	return nil
}
