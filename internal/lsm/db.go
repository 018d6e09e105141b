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

	// Block-cache counters (zero when the cache is disabled).
	BlockCacheHits   int64
	BlockCacheMisses int64
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
	manifestW   *wal.Writer
	manifestNum uint64
	// manifestBad is set when an append to the live MANIFEST fails partway
	// (e.g. a torn write under ENOSPC). Recovery stops replaying at a torn
	// record, so any edit appended after one would be silently invisible —
	// the next edit must rotate to a fresh manifest instead of appending.
	manifestBad bool

	flushing    bool
	compactions int // compaction jobs in flight (background + manual)
	// held is what the in-flight compaction jobs have claimed.
	held inFlight
	// manualWaiters counts CompactRange jobs waiting to claim a plan;
	// while nonzero the scheduler starts no new background jobs, so a
	// manual compaction cannot be starved by a busy write load.
	manualWaiters int
	// preempt is set while a CompactRange plan waits for background jobs
	// it conflicts with; backgroundFileNum then stops them.
	preempt bool
	// compactionsHalted stops background compaction scheduling after a
	// compaction aborted on ENOSPC. Unlike bgErr it does not poison writes:
	// the aborted compaction retained its inputs, so the DB is consistent.
	// The next successful flush (proof that space is available again)
	// clears it.
	compactionsHalted bool
	bgErr             error
	bgCond            *sync.Cond
	closed            bool
	iterCount         int
	zombies           []zombieFile
	snapshots         []base.SeqNum
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
	metSchedDeferred atomic.Int64
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

// ---- Snapshots ----

// Snapshot pins a point-in-time view for reads.
type Snapshot struct {
	db  *DB
	seq base.SeqNum
}

// NewSnapshot returns a snapshot at the current sequence.
//
//shield:notestonly the engine's MVCC read contract; the parent build made the tree behind TestCompactRangeShapeGolden holding a snapshot across one merge
func (d *DB) NewSnapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &Snapshot{db: d, seq: base.SeqNum(d.lastSeq.Load())}
	d.snapshots = append(d.snapshots, s.seq)
	return s
}

// Get reads key at the snapshot.
//
//shield:notestonly the read half of the snapshot contract that NewSnapshot keeps
func (s *Snapshot) Get(key []byte) ([]byte, error) { return s.db.getAt(key, s.seq) }

// Release unpins the snapshot.
//
//shield:notestonly the release half of the snapshot contract that NewSnapshot keeps
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
	var hits, misses int64
	if d.blockCache != nil {
		hits, misses = d.blockCache.Stats()
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
		BlockCacheHits:    hits,
		BlockCacheMisses:  misses,
	}
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
