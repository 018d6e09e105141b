// Package lsm implements the Log-Structured Merge-tree key-value store the
// SHIELD paper builds on: WAL-fronted writes into a skiplist memtable,
// flushes to block-based SST files, and leveled / universal / FIFO
// background compaction, with a MANIFEST-logged version set.
//
// The engine is encryption-agnostic. Every file it creates or opens,
// CURRENT included, passes through Options.Wrapper — the seam where
// internal/core embeds encryption for both of the paper's designs: per-file
// DEKs (SHIELD) or one instance DEK (EncFS), the WAL buffer, and chunked
// compaction encryption.
package lsm

import (
	"fmt"

	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// FileKind tells the FileWrapper what role a file plays, so encryption
// policy can differ per component (e.g. buffered WAL writes, chunked SST
// encryption, a CURRENT pointer left readable to keyless tools).
type FileKind int

// File roles.
const (
	FileKindWAL FileKind = iota
	FileKindSST
	FileKindManifest
	FileKindCurrent
	FileKindOther
)

// String implements fmt.Stringer.
func (k FileKind) String() string {
	switch k {
	case FileKindWAL:
		return "wal"
	case FileKindSST:
		return "sst"
	case FileKindManifest:
		return "manifest"
	case FileKindCurrent:
		return "current"
	default:
		return "other"
	}
}

// FileWrapper intercepts file creation and opening on the engine's write
// and read paths. Implementations encrypt/decrypt, assign DEKs, and track
// key lifecycle. The zero wrapper (NopWrapper) passes files through.
type FileWrapper interface {
	// WrapCreate wraps a newly created file. It may write a plaintext
	// header (e.g. carrying a DEK-ID) before returning. The returned dekID
	// (possibly empty) is recorded in file metadata for SSTs.
	WrapCreate(name string, kind FileKind, f vfs.WritableFile) (vfs.WritableFile, string, error)

	// WrapOpen wraps a file opened for random access, typically reading
	// the header written by WrapCreate and resolving its DEK.
	WrapOpen(name string, kind FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error)

	// WrapOpenSequential is WrapOpen for streaming reads (WAL/MANIFEST
	// recovery).
	WrapOpenSequential(name string, kind FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error)

	// FileDeleted notifies that a file was removed, so its DEK can be
	// pruned from the secure cache and revoked at the KDS (DEK rotation:
	// old keys die with their files).
	FileDeleted(name string, dekID string)
}

// NopWrapper is the identity FileWrapper (no encryption).
type NopWrapper struct{}

// WrapCreate implements FileWrapper.
func (NopWrapper) WrapCreate(_ string, _ FileKind, f vfs.WritableFile) (vfs.WritableFile, string, error) {
	return f, "", nil
}

// WrapOpen implements FileWrapper.
func (NopWrapper) WrapOpen(_ string, _ FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	return f, nil
}

// WrapOpenSequential implements FileWrapper.
func (NopWrapper) WrapOpenSequential(_ string, _ FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error) {
	return f, nil
}

// FileDeleted implements FileWrapper.
func (NopWrapper) FileDeleted(string, string) {}

// FreshnessStore persists the store's rollback-proof epoch floor outside
// the data directory — in SHIELD deployments, sealed into the passkey-
// protected secure cache next to the DEKs. Recovery reads the floor before
// trusting the manifest: a recovered epoch below the floor proves the data
// directory was rolled back to an earlier snapshot, and open fails closed
// (ErrEpochRegression) unless Options.AllowRollback. After a successful
// recovery the DB bumps the epoch past both the floor and the recovered
// value and seals the new floor.
type FreshnessStore interface {
	// EpochFloor returns the highest epoch ever sealed, and whether one has
	// been sealed at all (a fresh freshness store has no floor and accepts
	// any manifest epoch).
	EpochFloor() (uint64, bool)

	// SealEpoch durably records epoch as the new floor. Called after the
	// manifest carrying the epoch is durable, so a crash between the two
	// leaves floor <= manifest epoch — safe, never falsely regressive.
	SealEpoch(epoch uint64) error
}

// CompactionStyle selects the background-compaction policy.
type CompactionStyle int

// Compaction styles, mirroring RocksDB's leveled, universal (size-tiered),
// and FIFO policies.
const (
	CompactionLeveled CompactionStyle = iota
	CompactionUniversal
	CompactionFIFO
)

// String implements fmt.Stringer.
func (s CompactionStyle) String() string {
	switch s {
	case CompactionLeveled:
		return "leveled"
	case CompactionUniversal:
		return "universal"
	case CompactionFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("style(%d)", int(s))
	}
}

// Options configures a DB.
type Options struct {
	// FS is the filesystem; defaults to the in-memory filesystem (tests)
	// is NOT implied — FS is required.
	FS vfs.FS

	// Wrapper intercepts file I/O; defaults to NopWrapper.
	Wrapper FileWrapper

	// MemtableSize triggers flush when the active memtable exceeds this
	// many bytes. Default 4 MiB.
	MemtableSize int64

	// BlockSize is the SST data-block size. Default 4096. With Compression it
	// is the part of the table format (sstable.WriterOptions) a caller sets;
	// see tableOptions.
	BlockSize int

	// Compression compresses SST data blocks before they are encrypted
	// (ciphertext does not compress, so the pipeline order matters).
	// Default off, matching the paper's evaluation configuration.
	Compression sstable.Compression

	// BlockCacheSize bounds the decrypted-block cache. Default 8 MiB;
	// 0 keeps the default, negative disables the cache.
	BlockCacheSize int64

	// L0CompactionTrigger is the L0 file count that starts a leveled
	// compaction, and the sorted-run count that starts a universal merge.
	// Default 4.
	L0CompactionTrigger int

	// BaseLevelSize is the target size of L1. Default 16 MiB.
	BaseLevelSize uint64

	// TargetFileSize caps individual compaction output files. Default 4 MiB.
	TargetFileSize uint64

	// MaxBackgroundJobs bounds concurrent flush+compaction goroutines: one
	// slot is always reserved for the flush worker (flush preempts
	// compaction), the rest run compaction jobs on disjoint level/key-range
	// pairs. Default 2 (one flush slot + one compaction job, i.e. the
	// serial behavior).
	MaxBackgroundJobs int

	// MaxSubcompactions splits a single leveled compaction into up to this
	// many key-range shards executed on parallel goroutines, each shard
	// driving its own encrypting writer. Default 1 (no splitting).
	MaxSubcompactions int

	// CompactionStyle selects leveled, universal, or FIFO compaction.
	CompactionStyle CompactionStyle

	// FIFOMaxTableSize is the total-size cap for FIFO compaction; oldest
	// files are dropped beyond it. Default 256 MiB.
	FIFOMaxTableSize uint64

	// SyncWrites makes every committed batch fsync the WAL. Default false
	// (matching db_bench's default of buffered, non-synced WAL writes).
	SyncWrites bool

	// Compactor, when non-nil, executes compactions remotely (offloaded
	// compaction). Flushes always run locally.
	Compactor Compactor

	// ParanoidChecks verifies every SST referenced by the manifest at open:
	// each file's footer, index, and all data-block checksums are read and
	// checked before recovery completes (RocksDB's paranoid_checks plus
	// verify_checksums_in_compaction spirit). Without it, open only verifies
	// that referenced files exist and have readable metadata.
	ParanoidChecks bool

	// BestEffortRecovery opens around corrupt or missing SSTs instead of
	// failing: offending files are dropped from the recovered version (and
	// quarantined into lost/ when the DB is writable), mirroring RocksDB's
	// best_efforts_recovery. Data in those files becomes unreadable but the
	// rest of the tree stays available. Without it, open fails with a
	// *CorruptionError.
	BestEffortRecovery bool

	// MaxManifestFileSize rolls the MANIFEST into a fresh snapshot file once
	// its edit log grows past this many bytes. Default 4 MiB.
	MaxManifestFileSize int64

	// Freshness, when non-nil, anchors the store's epoch outside the data
	// directory (see FreshnessStore). nil disables rollback detection.
	Freshness FreshnessStore

	// AllowRollback downgrades an epoch regression from a fail-closed open
	// error to a logged warning — the explicit operator acknowledgement
	// that the store was restored from an older snapshot on purpose (scrub
	// uses it for disaster recovery). Ignored when Freshness is nil.
	AllowRollback bool

	// ReadOnly opens the database as a read-only instance (the DS
	// optimization of launching extra read replicas over shared WAL and
	// SST files): the manifest and WALs are replayed in memory, nothing is
	// written or deleted, and no background work runs. Writes, Flush, and
	// CompactRange return ErrReadOnly.
	ReadOnly bool

	// Logger receives background-error and event lines; nil discards.
	Logger func(format string, args ...any)
}

// l0StopWritesTrigger stalls writes while L0 holds this many files or more.
const l0StopWritesTrigger = 20

// tableOptions is the table format this DB writes, in the form that travels:
// a flush hands it to the table writer, a compaction puts it in its
// CompactionJob and the executor, local or remote, hands that to the writer.
// What is left zero (the bloom filter's bits per key) is the writer's default.
func (o Options) tableOptions() sstable.WriterOptions {
	return sstable.WriterOptions{BlockSize: o.BlockSize, Compression: o.Compression}
}

func (o Options) withDefaults() Options {
	if o.Wrapper == nil {
		o.Wrapper = NopWrapper{}
	}
	if o.MemtableSize == 0 {
		o.MemtableSize = 4 << 20
	}
	if o.BlockCacheSize == 0 {
		o.BlockCacheSize = 8 << 20
	} else if o.BlockCacheSize < 0 {
		o.BlockCacheSize = 0
	}
	if o.L0CompactionTrigger == 0 {
		o.L0CompactionTrigger = 4
	}
	if o.BaseLevelSize == 0 {
		o.BaseLevelSize = 16 << 20
	}
	if o.TargetFileSize == 0 {
		o.TargetFileSize = 4 << 20
	}
	if o.MaxBackgroundJobs == 0 {
		o.MaxBackgroundJobs = 2
	}
	if o.MaxSubcompactions <= 0 {
		o.MaxSubcompactions = 1
	}
	if o.FIFOMaxTableSize == 0 {
		o.FIFOMaxTableSize = 256 << 20
	}
	if o.MaxManifestFileSize == 0 {
		o.MaxManifestFileSize = 4 << 20
	}
	if o.Logger == nil {
		o.Logger = func(string, ...any) {}
	}
	return o
}
