package lsm

import (
	"sync"
	"time"

	"shield/internal/lsm/wal"
	"shield/internal/metrics"
)

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
		return errDegraded(err)
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
			return nil, nil, errDegraded(err)
		case d.mem.approximateSize() < d.opts.MemtableSize:
			w, mem := d.walWriter, d.mem
			d.mu.Unlock()
			if !stallStart.IsZero() {
				d.metStallNanos.Add(time.Since(stallStart).Nanoseconds())
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
		case l0Stalled(d.current):
			if stallStart.IsZero() {
				stallStart = time.Now()
			}
			d.maybeScheduleCompactionLocked()
			d.bgCond.Wait()
			d.mu.Unlock()
		default:
			if err := d.rotateAndUnlock(); err != nil {
				return nil, nil, err
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
	return errDegraded(d.bgErr)
}
