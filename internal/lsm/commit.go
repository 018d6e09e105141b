package lsm

import (
	"encoding/binary"
	"sync"

	"shield/internal/lsm/base"
	"shield/internal/metrics"
)

// Group commit: concurrent Put/Write callers enqueue into a commit pipeline
// that coalesces them into one WAL batch record, one memtable apply pass, and
// one fsync. The first waiter to arrive while the pipeline is idle becomes
// the leader; it detaches a group of queued followers, commits the whole
// group, delivers the (shared) result to every member, and then hands
// leadership to the queue head. Exactly one leader runs at a time, which is
// the pipeline's safety argument: only the leader appends to the WAL,
// applies to the memtable, or rotates either — the same single-writer
// invariant the old dedicated commit goroutine provided.
//
// The coalesced group is written as ONE WAL record. Batch records within a
// record take consecutive sequence numbers, so merging batches is a header
// rewrite plus body concatenation; recovery replays the merged record with
// the identical seq assignment. Because the record is the WAL's atomicity
// unit (its CRC covers the whole record and a torn tail drops it entirely),
// every writer in a group becomes durable together or not at all — there is
// no crash outcome where half a group survives. A failed append or sync
// fails every waiter in the group and poisons the DB; no waiter is ever
// acked on a partially persisted group.

// maxCommitGroup bounds how many waiters one leader coalesces: enough to
// amortize the fsync under heavy concurrency, small enough to bound ack
// latency for the first waiter and the size of the merged record.
const maxCommitGroup = 128

// maxCommitScratch is the largest merged-record buffer the pipeline keeps
// between groups: one group of large batches must not pin its record's size
// for the life of the DB.
const maxCommitScratch = 1 << 20

// commitWaiter is one Write (or memtable-rotation) request travelling
// through the pipeline. A Write's waiter is the one embedded in its Batch.
type commitWaiter struct {
	batch  *Batch
	sync   bool
	rotate bool // rotate the memtable instead of committing a batch

	// err is the commit result; readable after done is closed, or by the
	// waiter itself after leading.
	err error
	// done and lead exist only on a waiter that was queued behind a leader
	// (commitSend makes them, under p.mu); one that finds the pipeline idle
	// leads at once and never has channels. done is closed by the leader once
	// this waiter's group committed, lead to promote it from follower to
	// leader. Exactly one of the two is ever closed.
	done chan struct{}
	lead chan struct{}
}

// commitPipeline holds the queue and leadership state. It deliberately knows
// nothing about WAL or memtables; the DB's commitGroup does the I/O.
type commitPipeline struct {
	mu sync.Mutex
	// queue holds waiting followers in arrival order. A waiter is detached
	// (by the leader, into a group or into leadership) before its done/lead
	// channel is closed, so no waiter is ever both grouped and promoted.
	queue []*commitWaiter
	// leading is true while a leader is committing. Only the leader clears
	// it, and only with an empty queue, so leadership is never duplicated.
	leading bool
	closed  bool
	// idle signals Close when the leader retires (leading -> false).
	idle *sync.Cond
	// group and scratch are leader-owned: the gathered waiters and the buffer
	// for merged multi-writer records. Only the current leader touches them
	// (leadership passes under mu), and the WAL writer copies out of scratch
	// before the leader retires, so one of each serves all groups. The leader
	// clears group of pointers before it retires; scratch is kept only up to
	// maxCommitScratch.
	group   []*commitWaiter
	scratch []byte
}

func (p *commitPipeline) init() {
	p.idle = sync.NewCond(&p.mu)
}

// commitSend runs w through the pipeline and returns its commit error. The
// calling goroutine either becomes the leader (idle pipeline), or parks as a
// follower until a leader commits it or promotes it.
func (d *DB) commitSend(w *commitWaiter) error {
	p := &d.commit
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.leading {
		w.done, w.lead = make(chan struct{}), make(chan struct{})
		p.queue = append(p.queue, w)
		p.mu.Unlock()
		select {
		case <-w.done:
			return w.err
		case <-w.lead:
			// Promoted: the retiring leader detached us from the queue and
			// handed over; fall through to lead our own group.
		}
	} else {
		p.leading = true
		p.mu.Unlock()
	}
	d.commitLead(w)
	return w.err
}

// commitLead commits w's group and performs the leader handoff. Called with
// leadership held (p.leading true, w detached from the queue).
func (d *DB) commitLead(w *commitWaiter) {
	p := &d.commit

	// Gather followers. A rotation commits alone (it must observe the exact
	// memtable state its position in the arrival order implies), and a queued
	// rotation ends the group before it — it will lead its own "group" next.
	group := append(p.group[:0], w)
	if !w.rotate {
		p.mu.Lock()
		n := 0
		for n < len(p.queue) && len(group) < maxCommitGroup && !p.queue[n].rotate {
			group = append(group, p.queue[n])
			n++
		}
		p.queue = p.queue[:copy(p.queue, p.queue[n:])]
		p.mu.Unlock()
	}

	var err error
	if w.rotate {
		err = d.rotateMemtable()
	} else {
		err = d.commitGroup(group)
	}
	// The leader reads its own result straight from w; only followers are
	// parked on a channel.
	w.err = err
	for _, g := range group[1:] {
		g.err = err
		close(g.done)
	}
	clear(group)
	p.group = group[:0]

	// Handoff: promote the queue head, or retire if nobody is waiting. After
	// Close marks the pipeline closed the queue is already drained (failed
	// with ErrClosed), so the empty-queue branch also covers shutdown.
	p.mu.Lock()
	if len(p.queue) == 0 {
		p.leading = false
		p.idle.Broadcast()
		p.mu.Unlock()
		return
	}
	next := p.queue[0]
	p.queue = p.queue[:copy(p.queue, p.queue[1:])]
	p.mu.Unlock()
	close(next.lead)
}

// commitClose shuts the pipeline down: new senders fail with ErrClosed,
// queued waiters that no leader will ever claim are failed, and the call
// blocks until the in-flight leader (if any) retires.
func (d *DB) commitClose() {
	p := &d.commit
	p.mu.Lock()
	p.closed = true
	for _, f := range p.queue {
		f.err = ErrClosed
		close(f.done)
	}
	p.queue = nil
	for p.leading {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// commitGroup persists one group: one merged WAL record, at most one fsync,
// one memtable apply pass. Runs only on the leader.
func (d *DB) commitGroup(group []*commitWaiter) error {
	w, mem, err := d.makeRoomForWrite()
	if err != nil {
		return err
	}

	seqBase := base.SeqNum(d.lastSeq.Load()) + 1
	next := seqBase
	needSync := false
	var count uint32
	for _, r := range group {
		r.batch.setSeq(next)
		next += base.SeqNum(r.batch.Count())
		count += r.batch.Count()
		if r.sync {
			needSync = true
		}
	}

	// One record for the whole group. A single-writer group commits its own
	// encoding unchanged; a multi-writer group concatenates the bodies under
	// a fresh header (seqBase, total count) in the leader's scratch buffer,
	// leaving the callers' batches untouched. decodeBatch assigns seqs
	// consecutively from the header, which is exactly the per-batch
	// assignment above.
	rec := group[0].batch.data
	if len(group) > 1 {
		p := &d.commit
		scratch := p.scratch[:0]
		var hdr [batchHeaderLen]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(seqBase))
		binary.LittleEndian.PutUint32(hdr[8:12], count)
		scratch = append(scratch, hdr[:]...)
		for _, r := range group {
			scratch = append(scratch, r.batch.data[batchHeaderLen:]...)
		}
		rec = scratch
		if cap(scratch) > maxCommitScratch {
			scratch = nil
		}
		p.scratch = scratch
	}

	if err := w.AddRecord(rec); err != nil {
		d.setBGErr(err)
		return errDegraded(err)
	}
	d.metWAL.Add(int64(len(rec)))
	if needSync {
		if err := w.Sync(); err != nil {
			d.setBGErr(err)
			return errDegraded(err)
		}
		d.metWALSyncs.Add(1)
		metrics.Engine.WALSyncs.Add(1)
	}

	err = decodeBatch(rec, func(seq base.SeqNum, kind base.Kind, key, value []byte) error {
		mem.add(seq, kind, key, value)
		return nil
	})
	if err != nil {
		d.setBGErr(err)
		return errDegraded(err)
	}
	d.lastSeq.Store(uint64(next - 1))
	d.metWrites.Add(int64(len(group)))
	metrics.Engine.Writes.Add(int64(len(group)))
	if len(group) > 1 {
		metrics.Engine.GroupedCommits.Add(1)
		metrics.Engine.GroupedWriters.Add(int64(len(group)))
	}
	if hook := d.commitHook; hook != nil {
		hook(len(group), seqBase, next-1, rec)
	}
	return nil
}
