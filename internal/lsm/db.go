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
	"sync/atomic"
	"time"

	"shield/internal/cache"
	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/lsm/wal"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// Errors returned by DB operations.
var (
	ErrNotFound = errors.New("lsm: key not found")
	ErrClosed   = errors.New("lsm: database closed")
	ErrReadOnly = errors.New("lsm: database opened read-only")
)

// Metrics exposes engine counters.
type Metrics struct {
	Flushes           int64
	Compactions       int64
	CompactionRead    int64 // bytes
	CompactionWritten int64 // bytes
	FlushWritten      int64 // bytes
	WALWritten        int64 // bytes
	WALSyncs          int64 // commit-path fsyncs; group commit makes this < synced batches
	StallTime         time.Duration
	Gets              int64
	Writes            int64
	CompactionsActive int64 // compaction jobs in flight now
	CompactionsQueued int64 // runnable plans deferred for lack of a job slot
	Subcompactions    int64 // key-range shards run by split compaction jobs

	// Block-cache counters (zero when the cache is disabled). PinnedBytes is
	// the charge held by the pinned class (L0 data + index/filter blocks
	// under Options.PinL0AndMeta) that eviction never reclaims.
	BlockCacheHits   int64
	BlockCacheMisses int64
	BlockCachePinned int64 // bytes, point-in-time gauge

	// Prefix-filter counters: seeks routed through SeekPrefixGE, and tables
	// those seeks skipped entirely because the prefix bloom proved the
	// prefix absent.
	PrefixSeeks int64
	PrefixSkips int64
}

// GroupCommitRatio returns wal_syncs/writes — the group-commit win under
// synced concurrent writers (1.0 means every write paid its own fsync; the
// smaller the better). Zero when nothing was written.
func (m Metrics) GroupCommitRatio() float64 {
	if m.Writes == 0 {
		return 0
	}
	return float64(m.WALSyncs) / float64(m.Writes)
}

// DB is the LSM-KVS instance.
type DB struct {
	opts    Options
	dir     string
	fs      vfs.FS
	wrapper FileWrapper

	blockCache *cache.LRU
	tables     *tableCache

	// commit is the group-commit pipeline (commit.go): writers coalesce into
	// leader-committed groups of one WAL record + one fsync each.
	commit commitPipeline
	// commitHook, when non-nil, observes each committed group: its size,
	// first and last sequence, and the encoded WAL record (aliased — the
	// leader's scratch buffer is reused, so hooks must copy what they keep).
	// Set only by tests in this package, before writes begin; it runs on the
	// leader with no locks held.
	commitHook func(groupSize int, first, last base.SeqNum, rec []byte)

	// lastSeq is the newest committed sequence, readable without mu.
	lastSeq atomic.Uint64

	mu          sync.Mutex
	mem         *memTable
	imm         []*memTable // oldest first
	current     *manifest.Version
	nextFileNum uint64
	fileSeq     uint64 // strictly increasing run ordinal for L0 ordering
	logNum      uint64
	walWriter   *wal.Writer
	walDEKID    string
	manifestW   *wal.Writer
	manifestNum uint64
	// manifestBad is set when an append to the live MANIFEST fails partway
	// (e.g. a torn write under ENOSPC). Recovery stops replaying at a torn
	// record, so any edit appended after one would be silently invisible —
	// the next edit must rotate to a fresh manifest instead of appending.
	manifestBad bool

	flushing    bool
	compactions int // compaction jobs in flight (background + manual)
	// l0Jobs counts in-flight jobs consuming level-0 inputs. At most one
	// may run: L0 files overlap arbitrarily and files flushed after an L0
	// job starts are not claimed by it, so a second L0 job's outputs could
	// interleave the first's at the base level.
	l0Jobs int
	// manualWaiters counts CompactRange steps waiting to claim a plan;
	// while nonzero the scheduler starts no new background jobs, so a
	// manual compaction cannot be starved by a busy write load.
	manualWaiters int
	// compactionsHalted stops background compaction scheduling after a
	// compaction aborted on ENOSPC. Unlike bgErr it does not poison writes:
	// the aborted compaction retained its inputs, so the DB is consistent.
	// The next successful flush (proof that space is available again)
	// clears it.
	compactionsHalted bool
	busyFiles         map[uint64]bool
	bgErr             error
	bgCond            *sync.Cond
	closed            bool
	iterCount         int
	zombies           []zombieFile
	snapshots         []base.SeqNum
	dekIDs            map[uint64]string // fileNum -> DEK-ID for SSTs
	// epoch is the store's freshness epoch: bumped past both the recovered
	// manifest epoch and the sealed floor on every writable open, written
	// into snapshot edits and CURRENT, and sealed into Options.Freshness.
	epoch uint64
	// integrityBad marks SSTs already quarantined (or being quarantined)
	// after a failed-authentication read, so repeated reads of a corrupt
	// file trigger exactly one version edit.
	integrityBad     map[uint64]bool
	flushWaiters     []chan error
	metFlushes       atomic.Int64
	metCompact       atomic.Int64
	metCompRead      atomic.Int64
	metCompWrite     atomic.Int64
	metFlushWrite    atomic.Int64
	metWAL           atomic.Int64
	metWALSyncs      atomic.Int64
	metStallNanos    atomic.Int64
	metGets          atomic.Int64
	metWrites        atomic.Int64
	metSubcomp       atomic.Int64
	metSchedDeferred atomic.Int64
	metPrefixSeeks   atomic.Int64
	metPrefixSkips   atomic.Int64
}

// errDegraded wraps a write-path failure in ErrDegraded.
func errDegraded(err error) error {
	return fmt.Errorf("%w: %w", ErrDegraded, err)
}

type zombieFile struct {
	name    string
	dekID   string
	fileNum uint64
	isSST   bool
	// quarantine moves the file into lost/ instead of unlinking it: the
	// zombie came from an integrity failure and the ciphertext is evidence.
	quarantine bool
}

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
		busyFiles:    make(map[uint64]bool),
		dekIDs:       make(map[uint64]string),
		integrityBad: make(map[uint64]bool),
	}
	d.bgCond = sync.NewCond(&d.mu)
	d.commit.init()
	if opts.BlockCacheSize > 0 {
		d.blockCache = cache.New(opts.BlockCacheSize)
	}
	d.tables = newTableCache(d.fs, dir, d.wrapper, d.blockCache)
	d.tables.pinMeta = opts.PinL0AndMeta

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
	data, err := vfs.ReadFile(d.fs, currentName)
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

	for lvl, files := range ver.Levels {
		for _, f := range files {
			if f.DEKID != "" {
				d.dekIDs[f.FileNum] = f.DEKID
			}
			if f.Seq > d.fileSeq {
				d.fileSeq = f.Seq
			}
			// L0 files never change level (compaction replaces, never moves),
			// so pin-at-recovery plus pin-at-flush covers every L0 file.
			if lvl == 0 && d.opts.PinL0AndMeta {
				d.tables.setPinData(f.FileNum)
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
		if err := installCurrent(d.fs, d.dir, d.manifestNum, d.epoch); err != nil {
			return err
		}
		d.sealEpoch()
	}

	// Replay WALs >= logNum, oldest first.
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
	if err := installCurrent(d.fs, d.dir, d.manifestNum, d.epoch); err != nil {
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
// tmp file, rename over CURRENT, and sync the directory so both the rename
// and the manifest file's entry survive power loss. epoch, when nonzero, is
// echoed on a second line so tools (and the manifest cross-check in
// recovery) can read the store's freshness epoch without replaying the
// manifest; older builds that read only the first line are unaffected.
func installCurrent(fsys vfs.FS, dir string, manifestNum uint64, epoch uint64) error {
	content := fmt.Sprintf("MANIFEST-%06d\n", manifestNum)
	if epoch > 0 {
		content += fmt.Sprintf("epoch %d\n", epoch)
	}
	return vfs.ReplaceFile(fsys, currentFileName(dir), []byte(content))
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
// it verifies those checksums); with ParanoidChecks every data block's
// checksum is read and verified too. Corrupt or missing files fail the open
// with a *CorruptionError unless BestEffortRecovery, which quarantines them
// (writable opens) and drops them from the version. Errors that do not prove
// corruption — e.g. an unreachable KDS leaving a DEK unresolvable — always
// fail the open: an unverifiable file is not a corrupt one.
func (d *DB) verifyTables() error {
	ver := d.current
	var dropped map[uint64]bool
	for lvl := range ver.Levels {
		for _, f := range ver.Levels[lvl] {
			name := sstFileName(d.dir, f.FileNum)
			err := d.verifyTable(f.FileNum)
			if err == nil && d.opts.ParanoidChecks {
				err = d.verifyDigest(f)
			}
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

// verifyTable opens one SST (footer, index, filter, and properties checksums
// are verified as a side effect) and, under ParanoidChecks, verifies every
// data block.
func (d *DB) verifyTable(fileNum uint64) error {
	r, release, err := d.tables.get(fileNum)
	if err != nil {
		return err
	}
	defer release()
	if !d.opts.ParanoidChecks {
		return nil
	}
	n, err := r.VerifyChecksums()
	metrics.Recovery.ScrubBlocksVerified.Add(n)
	return err
}

// verifyDigest recomputes an SST's tag-chain digest from the sealed file
// and compares it against the digest the manifest recorded when the file
// was installed. This is the hash-tree anchor: per-block AEAD tags prove
// each block authentic under the file's DEK, and the manifest-recorded
// digest over those tags proves the file is the exact one this version
// installed — replacing it with an older validly-sealed version changes
// the chain. Files without a manifest digest (format v1, encryption off)
// and wrappers that expose no digest are skipped.
func (d *DB) verifyDigest(f *manifest.FileMetadata) error {
	if f.Digest == "" {
		return nil
	}
	name := sstFileName(d.dir, f.FileNum)
	raw, err := d.fs.Open(name)
	if err != nil {
		return err
	}
	wrapped, err := d.wrapper.WrapOpen(name, FileKindSST, raw)
	if err != nil {
		raw.Close()
		return err
	}
	defer wrapped.Close()
	dr, ok := wrapped.(interface{ FileDigest() ([]byte, error) })
	if !ok {
		return nil
	}
	sum, err := dr.FileDigest()
	if err != nil {
		return d.typeIntegrityErr(f.FileNum, err)
	}
	if got := hex.EncodeToString(sum); got != f.Digest {
		return &IntegrityError{
			Path: name, Kind: FileKindSST,
			Detail: fmt.Sprintf("tag-chain digest %s does not match manifest digest %s (file replaced?)", got, f.Digest),
		}
	}
	return nil
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

// ---- Write path ----

// opBatches recycles the one-record batches behind Put and Delete.
var opBatches = sync.Pool{New: func() any { return NewBatch() }}

// maxPooledBatch is the largest batch buffer opBatches keeps: a single huge
// value must not stay pinned in the pool.
const maxPooledBatch = 64 << 10

// Put sets key to value.
func (d *DB) Put(key, value []byte) error {
	b := opBatches.Get().(*Batch)
	b.Put(key, value)
	return d.writeOp(b)
}

// Delete removes key.
func (d *DB) Delete(key []byte) error {
	b := opBatches.Get().(*Batch)
	b.Delete(key)
	return d.writeOp(b)
}

// writeOp commits a pooled batch and returns it to the pool: by the time
// Write returns, the WAL and the memtable have both copied out of it.
func (d *DB) writeOp(b *Batch) error {
	err := d.Write(b, d.opts.SyncWrites)
	if cap(b.data) <= maxPooledBatch {
		b.Reset()
		opBatches.Put(b)
	}
	return err
}

// Write atomically commits a batch. When sync is true the WAL is fsynced
// before returning.
func (d *DB) Write(b *Batch, sync bool) error {
	if d.opts.ReadOnly {
		return ErrReadOnly
	}
	if b.Empty() {
		return nil
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if d.bgErr != nil {
		err := d.bgErr
		d.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	d.mu.Unlock()
	b.waiter = commitWaiter{batch: b, sync: sync}
	return d.commitSend(&b.waiter)
}

// makeRoomForWrite rotates a full memtable and stalls on back-pressure, then
// returns the WAL and memtable the leader's group commits into.
func (d *DB) makeRoomForWrite() (*wal.Writer, *memTable, error) {
	stallStart := time.Time{}
	for {
		d.mu.Lock()
		switch {
		case d.bgErr != nil:
			err := d.bgErr
			d.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: %w", ErrDegraded, err)
		case d.mem.approximateSize() < d.opts.MemtableSize:
			w, mem := d.walWriter, d.mem
			d.mu.Unlock()
			if !stallStart.IsZero() {
				stalled := time.Since(stallStart).Nanoseconds()
				d.metStallNanos.Add(stalled)
				metrics.Jobs.StallNanos.Add(stalled)
			}
			return w, mem, nil
		case len(d.imm) >= 2:
			// Too many unflushed memtables: wait for flush.
			if stallStart.IsZero() {
				stallStart = time.Now()
			}
			d.maybeScheduleFlushLocked()
			d.bgCond.Wait()
			d.mu.Unlock()
		case d.opts.CompactionStyle != CompactionFIFO &&
			len(d.current.Levels[0]) >= d.opts.L0StopWritesTrigger:
			// FIFO is exempt: it never merges L0, so a file-count stall
			// would never clear — FIFO bounds data by total size instead.
			if stallStart.IsZero() {
				stallStart = time.Now()
			}
			d.maybeScheduleCompactionLocked()
			d.bgCond.Wait()
			d.mu.Unlock()
		default:
			// Rotate: seal current memtable, start a fresh WAL.
			old := d.walWriter
			d.imm = append(d.imm, d.mem)
			if err := d.startNewLogLocked(); err != nil {
				d.setBGErrLocked(err)
				d.mu.Unlock()
				return nil, nil, fmt.Errorf("%w: %w", ErrDegraded, err)
			}
			d.maybeScheduleFlushLocked()
			d.mu.Unlock()
			if old != nil {
				if err := old.Close(); err != nil {
					d.setBGErr(err)
					return nil, nil, fmt.Errorf("%w: %w", ErrDegraded, err)
				}
			}
		}
	}
}

func (d *DB) setBGErr(err error) {
	d.mu.Lock()
	d.setBGErrLocked(err)
	d.mu.Unlock()
}

// setBGErrLocked poisons the DB into read-only degraded mode. d.mu held.
func (d *DB) setBGErrLocked(err error) {
	if d.bgErr == nil {
		d.bgErr = err
		metrics.Storage.DegradedEntries.Add(1)
		d.opts.Logger("lsm: entering degraded (read-only) mode: %v", err)
	}
	d.bgCond.Broadcast()
}

// Degraded reports whether the DB is in read-only degraded mode: a prior
// write-path failure (WAL append, flush, manifest write) poisoned it, writes
// fail fast with ErrDegraded, and reads are still served. It returns nil when
// healthy, else the ErrDegraded-wrapped cause. Reopening the DB exits
// degraded mode.
func (d *DB) Degraded() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bgErr == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrDegraded, d.bgErr)
}

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
	imms := append([]*memTable(nil), d.imm...)
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
	r, release, err := d.tables.get(fileNum)
	if err != nil {
		return nil, 0, d.wrapIntegrityErr(fileNum, err)
	}
	defer release()
	v, kind, err := r.Get(key, seq)
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
	if err == nil || !errors.Is(err, vfs.ErrIntegrity) {
		return err
	}
	var ie *IntegrityError
	if errors.As(err, &ie) {
		return err
	}
	return &IntegrityError{
		Path:   sstFileName(d.dir, fileNum),
		Kind:   FileKindSST,
		Detail: "block failed authentication",
		Err:    err,
	}
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
	if d.closed || d.integrityBad[fileNum] || d.busyFiles[fileNum] {
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
				open:     func() (internalIterator, error) { return d.openTableIter(num) },
				smallest: f.Smallest,
				largest:  f.Largest,
			})
		}
		iters = append(iters, newConcatIter(handles))
	}
	d.iterCount++
	it := &Iterator{
		m:             newMergingIter(iters...),
		seq:           seq,
		prefixExtract: d.opts.PrefixExtractor,
		onPrefixSeek: func() {
			d.metPrefixSeeks.Add(1)
			metrics.Engine.PrefixSeeks.Add(1)
		},
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
	r, release, err := d.tables.get(fileNum)
	if err != nil {
		return nil, d.typeIntegrityErr(fileNum, err)
	}
	wrap := func(err error) error { return d.typeIntegrityErr(fileNum, err) }
	return &sstIterAdapter{
		it:      r.NewIter(),
		release: release,
		wrapErr: wrap,
		mayContainPrefix: func(prefix []byte) bool {
			if r.MayContainPrefix(prefix) {
				return true
			}
			d.metPrefixSkips.Add(1)
			metrics.Engine.PrefixSkips.Add(1)
			return false
		},
	}, nil
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
			err := d.bgErr
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
// Empty when the file carries no authentication: format v1 or no encryption.
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

	name := sstFileName(d.dir, fileNum)
	raw, err := d.fs.Create(name)
	if err != nil {
		return nil, err
	}
	wrapped, dekID, err := d.wrapper.WrapCreate(name, FileKindSST, raw)
	if err != nil {
		raw.Close()
		d.fs.Remove(name)
		return nil, err
	}
	w := newTableWriter(wrapped, d.opts)
	// On any failure below, remove the partial SST so it releases its disk
	// space and DEK registration; the memtable it was built from is retained
	// and the caller poisons the DB, so no data is lost.
	abortFlush := func(err error) (*manifest.FileMetadata, error) {
		w.Abort()
		d.fs.Remove(name)
		d.wrapper.FileDeleted(name, dekID)
		return nil, err
	}
	it := mem.iter()
	for ok := it.First(); ok; ok = it.Next() {
		if err := w.Add(it.Key(), it.Value()); err != nil {
			return abortFlush(err)
		}
	}
	if err := w.Finish(); err != nil {
		return abortFlush(err)
	}
	// The SST's directory entry must be durable before the manifest edit
	// that references it is; otherwise a crash leaves a manifest pointing at
	// a file that never existed.
	if err := d.fs.SyncDir(d.dir); err != nil {
		return abortFlush(err)
	}
	d.metFlushWrite.Add(int64(w.FileSize()))
	// Flush outputs land in L0; mark before install so the first reader open
	// already caches this file's data blocks in the pinned class.
	if d.opts.PinL0AndMeta {
		d.tables.setPinData(fileNum)
	}

	meta := &manifest.FileMetadata{
		FileNum:  fileNum,
		Size:     w.FileSize(),
		Smallest: w.Smallest(),
		Largest:  w.Largest(),
		DEKID:    dekID,
		Seq:      seq,
		Digest:   fileDigest(wrapped),
	}
	if dekID != "" {
		d.mu.Lock()
		d.dekIDs[fileNum] = dekID
		d.mu.Unlock()
	}
	return meta, nil
}

// rotateMemtable seals the active memtable behind a fresh WAL. It runs only
// on the commit-pipeline leader, so it never races WAL appends.
func (d *DB) rotateMemtable() error {
	d.mu.Lock()
	if d.mem.empty() {
		d.mu.Unlock()
		return nil
	}
	old := d.walWriter
	d.imm = append(d.imm, d.mem)
	if err := d.startNewLogLocked(); err != nil {
		d.setBGErrLocked(err)
		d.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	d.maybeScheduleFlushLocked()
	d.mu.Unlock()
	if old != nil {
		return old.Close()
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
		return fmt.Errorf("%w: %w", ErrDegraded, err)
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

// ---- Version management ----

// applyEditLocked logs edit to the MANIFEST and installs the new version.
// d.mu must be held.
func (d *DB) applyEditLocked(edit *manifest.VersionEdit) error {
	nf := d.nextFileNum
	ls := d.lastSeq.Load()
	edit.NextFileNumber = &nf
	edit.LastSeq = &ls

	nv, err := d.current.Apply(edit)
	if err != nil {
		return err
	}
	// Safety net for concurrent compactions: refuse to log a version whose
	// sorted levels overlap — a scheduler disjointness bug must fail the
	// installing job loudly, not corrupt the manifest.
	if err := nv.CheckOrdering(); err != nil {
		return err
	}
	// The snapshot's LogNumber must not skip any WAL still holding
	// unflushed data: immutable memtables waiting behind this edit keep
	// their logs live, so take the minimum — or, for a flush edit, the
	// LogNumber the edit itself establishes.
	snapLog := d.logNum
	for _, m := range d.imm {
		if m.logNum < snapLog {
			snapLog = m.logNum
		}
	}
	if edit.LogNumber != nil {
		snapLog = *edit.LogNumber
	}
	if d.manifestBad {
		// An earlier append tore the live manifest's tail; replay would stop
		// there, so an appended record could never be recovered. Install the
		// edit by rotating: nv (which already includes it) becomes the
		// snapshot of a fresh manifest. Failure keeps manifestBad set — the
		// old CURRENT/manifest pair is intact and the edit is not durable.
		if err := d.rotateManifestLocked(nv, snapLog); err != nil {
			return err
		}
		d.manifestBad = false
	} else {
		enc, err := edit.Encode()
		if err != nil {
			return err
		}
		if err := d.manifestW.AddRecord(enc); err != nil {
			d.manifestBad = true
			return err
		}
		if err := d.manifestW.Sync(); err != nil {
			d.manifestBad = true
			return err
		}
		// Long-running instances roll the MANIFEST once the edit history
		// grows past the cap, replacing it with one snapshot record (the
		// same compaction that happens at every open).
		if d.manifestW.Size() > d.opts.MaxManifestFileSize {
			if err := d.rotateManifestLocked(nv, snapLog); err != nil {
				// Rotation failure is not fatal: the old manifest is intact.
				d.opts.Logger("lsm: manifest rotation failed: %v", err)
			}
		}
	}
	// Files removed by this edit become deletion candidates.
	for _, del := range edit.Deleted {
		dekID := d.dekIDs[del.FileNum]
		delete(d.dekIDs, del.FileNum)
		d.zombies = append(d.zombies, zombieFile{
			name:    sstFileName(d.dir, del.FileNum),
			dekID:   dekID,
			fileNum: del.FileNum,
			isSST:   true,
		})
	}
	d.current = nv
	return nil
}

// rotateManifestLocked writes nv as a single snapshot edit into a fresh
// MANIFEST, then — only after that snapshot is durable — repoints CURRENT
// and retires the old manifest file. A crash anywhere before installCurrent
// leaves the old CURRENT/manifest pair fully intact. logNum is the oldest
// WAL recovery must still replay (NOT necessarily d.logNum: queued immutable
// memtables keep older logs live). d.mu held.
func (d *DB) rotateManifestLocked(nv *manifest.Version, logNum uint64) error {
	oldNum := d.manifestNum
	oldW := d.manifestW
	restore := func() {
		if d.manifestW != oldW {
			d.manifestW.Close()
		}
		d.manifestNum = oldNum
		d.manifestW = oldW
	}
	d.manifestNum = d.allocFileNum()
	if err := d.createManifestFile(); err != nil {
		d.manifestNum = oldNum
		d.manifestW = oldW
		return err
	}
	if err := d.writeSnapshotLocked(nv, logNum); err != nil {
		restore()
		return err
	}
	if err := installCurrent(d.fs, d.dir, d.manifestNum, d.epoch); err != nil {
		restore()
		return err
	}
	oldW.Close()
	oldName := manifestFileName(d.dir, oldNum)
	//shield:nolockio one unlink on the rare manifest-rollover path; retiring the old manifest atomically with the switch keeps recovery from ever seeing two
	if err := d.fs.Remove(oldName); err == nil {
		d.wrapper.FileDeleted(oldName, "")
	}
	return nil
}

// deleteObsoleteLocked removes zombie SSTs (unless iterators pin them) and
// WALs older than the live log. d.mu must be held.
//
//shield:nolockio iterCount and the zombie list must be checked atomically with the removals (an iterator opened mid-delete would read a vanished SST); runs on the background flush/compaction goroutine, not the commit path
func (d *DB) deleteObsoleteLocked() {
	if d.iterCount == 0 {
		for _, z := range d.zombies {
			d.tables.evict(z.fileNum)
			if z.quarantine {
				// Integrity quarantine: preserve the ciphertext as evidence
				// and keep its DEK resolvable (no FileDeleted) so scrub can
				// still examine the file.
				if err := quarantineFile(d.fs, d.dir, z.name); err != nil {
					d.opts.Logger("lsm: quarantining %s: %v", z.name, err)
				}
				continue
			}
			if err := d.fs.Remove(z.name); err != nil && !errors.Is(err, vfs.ErrNotFound) {
				d.opts.Logger("lsm: removing %s: %v", z.name, err)
			}
			d.wrapper.FileDeleted(z.name, z.dekID)
		}
		d.zombies = nil
	}

	// WALs below the oldest live memtable log are dead.
	minLog := d.logNum
	for _, m := range d.imm {
		if m.logNum < minLog {
			minLog = m.logNum
		}
	}
	entries, err := d.fs.List(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		kind, num, ok := parseFileName(e.Name)
		if !ok {
			continue
		}
		full := d.dir + "/" + e.Name
		switch kind {
		case FileKindWAL:
			if num < minLog {
				if err := d.fs.Remove(full); err == nil {
					d.wrapper.FileDeleted(full, "")
				}
			}
		case FileKindManifest:
			if num != d.manifestNum {
				if err := d.fs.Remove(full); err == nil {
					d.wrapper.FileDeleted(full, "")
				}
			}
		}
	}
}

// ---- Snapshots ----

// Snapshot pins a point-in-time view for reads.
type Snapshot struct {
	db  *DB
	seq base.SeqNum
}

// NewSnapshot returns a snapshot at the current sequence.
func (d *DB) NewSnapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &Snapshot{db: d, seq: base.SeqNum(d.lastSeq.Load())}
	d.snapshots = append(d.snapshots, s.seq)
	return s
}

// Get reads key at the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) { return s.db.getAt(key, s.seq) }

// Release unpins the snapshot.
func (s *Snapshot) Release() {
	d := s.db
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, seq := range d.snapshots {
		if seq == s.seq {
			d.snapshots = append(d.snapshots[:i], d.snapshots[i+1:]...)
			break
		}
	}
}

// smallestSnapshotLocked returns the lowest pinned sequence (or lastSeq).
func (d *DB) smallestSnapshotLocked() base.SeqNum {
	min := base.SeqNum(d.lastSeq.Load())
	for _, s := range d.snapshots {
		if s < min {
			min = s
		}
	}
	return min
}

// ---- Metrics / lifecycle ----

// Metrics returns a snapshot of engine counters.
func (d *DB) Metrics() Metrics {
	d.mu.Lock()
	active := int64(d.compactions)
	d.mu.Unlock()
	var hits, misses, pinned int64
	if d.blockCache != nil {
		hits, misses = d.blockCache.Stats()
		pinned = d.blockCache.Pinned()
	}
	return Metrics{
		Flushes:           d.metFlushes.Load(),
		Compactions:       d.metCompact.Load(),
		CompactionRead:    d.metCompRead.Load(),
		CompactionWritten: d.metCompWrite.Load(),
		FlushWritten:      d.metFlushWrite.Load(),
		WALWritten:        d.metWAL.Load(),
		WALSyncs:          d.metWALSyncs.Load(),
		StallTime:         time.Duration(d.metStallNanos.Load()),
		Gets:              d.metGets.Load(),
		Writes:            d.metWrites.Load(),
		CompactionsActive: active,
		CompactionsQueued: d.metSchedDeferred.Load(),
		Subcompactions:    d.metSubcomp.Load(),
		BlockCacheHits:    hits,
		BlockCacheMisses:  misses,
		BlockCachePinned:  pinned,
		PrefixSeeks:       d.metPrefixSeeks.Load(),
		PrefixSkips:       d.metPrefixSkips.Load(),
	}
}

// NumFilesAtLevel reports the file count at a level (for tests/benches).
func (d *DB) NumFilesAtLevel(level int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.current.Levels[level])
}

// Close flushes the WAL and stops background work. Memtable contents remain
// recoverable from the WAL on reopen.
func (d *DB) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()

	// Fail queued writers and wait for the in-flight commit leader (if any)
	// to retire; afterwards nothing can touch the WAL or memtable.
	d.commitClose()

	// Wait for background workers to drain.
	d.mu.Lock()
	for d.flushing || d.compactions > 0 {
		d.bgCond.Wait()
	}
	walW := d.walWriter
	manW := d.manifestW
	d.mu.Unlock()

	var firstErr error
	if walW != nil {
		if err := walW.Close(); err != nil {
			firstErr = err
		}
	}
	if manW != nil {
		if err := manW.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.tables.close()
	return firstErr
}

// DebugString renders a human-readable summary of the tree: per-level file
// counts and sizes plus engine counters — the analog of RocksDB's
// "rocksdb.stats" property, used by tools and tests.
func (d *DB) DebugString() string {
	d.mu.Lock()
	ver := d.current
	memBytes := d.mem.approximateSize()
	immCount := len(d.imm)
	d.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "memtable: %d bytes (+%d immutable)\n", memBytes, immCount)
	for lvl := range ver.Levels {
		if len(ver.Levels[lvl]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "L%d: %3d files %10d bytes\n", lvl, len(ver.Levels[lvl]), ver.LevelSize(lvl))
	}
	m := d.Metrics()
	fmt.Fprintf(&b, "flushes=%d compactions=%d wal=%dB flushed=%dB compacted(r/w)=%dB/%dB stall=%v\n",
		m.Flushes, m.Compactions, m.WALWritten, m.FlushWritten,
		m.CompactionRead, m.CompactionWritten, m.StallTime.Round(time.Millisecond))
	return b.String()
}
