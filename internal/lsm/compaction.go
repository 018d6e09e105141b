package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// CompactionJob is a self-contained description of one compaction, designed
// to be serializable so an offloaded-compaction worker on another server
// can execute it against shared storage. DEK resolution happens on the
// executing side via the DEK-IDs embedded in each input file's header.
type CompactionJob struct {
	// Dir is the database directory on the (shared) filesystem.
	Dir string `json:"dir"`

	// Inputs lists the files to merge, grouped by level.
	Inputs []JobLevel `json:"inputs"`

	// OutputLevel receives the merged output files.
	OutputLevel int `json:"output_level"`

	// Bottommost is true when no deeper level overlaps the input range, so
	// tombstones older than every snapshot can be elided.
	Bottommost bool `json:"bottommost"`

	// SmallestSnapshot is the lowest pinned sequence number; versions
	// shadowed at or below it are dropped.
	SmallestSnapshot uint64 `json:"smallest_snapshot"`

	// TargetFileSize caps each output file.
	TargetFileSize uint64 `json:"target_file_size"`

	// WriterOptions is the outputs' table format, the engine's own carried
	// verbatim (its field encodes inline: block_size), so an offloaded
	// worker writes the table the engine would.
	sstable.WriterOptions
}

// JobLevel is one level's input file set.
type JobLevel struct {
	Level int                     `json:"level"`
	Files []manifest.FileMetadata `json:"files"`
}

// CompactionResult reports a compaction's outputs and I/O volume.
type CompactionResult struct {
	Outputs      []manifest.FileMetadata `json:"outputs"`
	BytesRead    int64                   `json:"bytes_read"`
	BytesWritten int64                   `json:"bytes_written"`
}

// Compactor executes compaction jobs. The local implementation runs
// in-process; internal/compactsvc ships jobs to a remote worker. newFileNum
// is the engine's file-number allocator: each output takes its number from
// it when the output is created.
type Compactor interface {
	Compact(job CompactionJob, newFileNum func() (uint64, error)) (CompactionResult, error)
}

// LocalCompactor runs compactions in-process against fs.
type LocalCompactor struct {
	FS      vfs.FS
	Wrapper FileWrapper
}

// Compact implements Compactor.
func (c *LocalCompactor) Compact(job CompactionJob, newFileNum func() (uint64, error)) (CompactionResult, error) {
	return RunCompaction(c.FS, c.Wrapper, job, newFileNum)
}

// RunCompaction merges the job's inputs into output tables on fs. It is the
// single compaction implementation shared by the in-process path and the
// offloaded-compaction worker. Every output takes its file number from
// newFileNum when it is created. Under SHIELD each output drives its own
// chunked encrypting writer, which is where the job's parallelism lives.
//
// Failure is abort-and-retain-inputs: no manifest state changes until the
// caller installs the returned edit, so on any error (ENOSPC on an output
// being the expected one) every output file created so far is closed and
// removed — releasing its quota and its DEK registration — and the inputs
// remain the authoritative data. The caller can simply retry later.
func RunCompaction(fs vfs.FS, wrapper FileWrapper, job CompactionJob, newFileNum func() (uint64, error)) (CompactionResult, error) {
	if wrapper == nil {
		wrapper = NopWrapper{}
	}
	var res CompactionResult
	for _, lvl := range job.Inputs {
		for _, f := range lvl.Files {
			res.BytesRead += int64(f.Size)
		}
	}
	outs, err := runMerge(fs, wrapper, job, newFileNum)
	// The output files' directory entries must be durable before the caller
	// logs the manifest edit referencing them.
	if err == nil && len(outs) > 0 {
		if err = fs.SyncDir(job.Dir); err != nil {
			abortOutputs(outs)
		}
	}
	if err != nil {
		metrics.Storage.CompactionAborts.Add(1)
		return res, err
	}
	for _, o := range outs {
		res.Outputs = append(res.Outputs, o.meta)
		res.BytesWritten += int64(o.meta.Size)
	}
	return res, nil
}

// abortOutputs discards a job's outputs (abort path).
func abortOutputs(outs []*sstOutput) {
	for _, o := range outs {
		o.abort()
	}
}

// runMerge merges the job's inputs into output tables, numbering each
// output with newFileNum as it is created.
//
// Failure is abort-and-retain: every output the merge created is aborted —
// releasing its quota and DEK registration — and the inputs remain
// authoritative.
func runMerge(fs vfs.FS, wrapper FileWrapper, job CompactionJob,
	newFileNum func() (uint64, error)) (_ []*sstOutput, retErr error) {

	// Open the inputs and build the merge.
	var iters []internalIterator
	var readers []*sstable.Reader
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for _, lvl := range job.Inputs {
		for _, f := range lvl.Files {
			name := sstFileName(job.Dir, f.FileNum)
			raw, err := fs.Open(name)
			if err != nil {
				return nil, fmt.Errorf("lsm: compaction input %d: %w", f.FileNum, err)
			}
			wrapped, err := wrapper.WrapOpen(name, FileKindSST, raw)
			if err != nil {
				raw.Close()
				return nil, err
			}
			r, err := sstable.NewReader(wrapped, sstable.ReaderOptions{FileNum: f.FileNum})
			if err != nil {
				wrapped.Close()
				return nil, fmt.Errorf("lsm: compaction input %d: %w", f.FileNum, err)
			}
			readers = append(readers, r)
			iters = append(iters, &sstIterAdapter{it: r.NewIter()})
		}
	}
	merged := newMergingIter(iters...)

	smallestSnapshot := base.SeqNum(job.SmallestSnapshot)
	var (
		outs          []*sstOutput
		out           *sstOutput // the one being filled (the last of outs), or nil
		lastUserKey   []byte
		haveUserKey   bool
		lastSeqForKey base.SeqNum
		prevAddedUser []byte
	)
	defer func() {
		if retErr != nil {
			abortOutputs(outs)
		}
	}()

	for ok := merged.First(); ok; ok = merged.Next() {
		ikey := merged.Key()
		userKey := base.UserKey(ikey)
		seq, kind := base.DecodeTrailer(ikey)

		firstOccurrence := !haveUserKey || !bytes.Equal(userKey, lastUserKey)
		if firstOccurrence {
			lastUserKey = append(lastUserKey[:0], userKey...)
			haveUserKey = true
		}

		drop := false
		switch {
		case !firstOccurrence && lastSeqForKey <= smallestSnapshot:
			// A newer record of this key is visible to every snapshot.
			drop = true
		case kind == base.KindDelete && seq <= smallestSnapshot && job.Bottommost:
			// Tombstone with nothing underneath it to hide.
			drop = true
		}
		lastSeqForKey = seq
		if drop {
			continue
		}

		// Cut the output at the target size, but only between user keys so
		// all versions of a key share one file.
		if out != nil && out.w.EstimatedSize() >= job.TargetFileSize &&
			prevAddedUser != nil && !bytes.Equal(userKey, prevAddedUser) {
			if err := out.finish(); err != nil {
				return nil, err
			}
			out = nil
		}
		if out == nil {
			num, err := newFileNum()
			if err != nil {
				return nil, err
			}
			if out, err = createSSTOutput(fs, wrapper, job.Dir, num, job.WriterOptions); err != nil {
				return nil, err
			}
			outs = append(outs, out)
		}
		if err := out.w.Add(ikey, merged.Value()); err != nil {
			return nil, err
		}
		prevAddedUser = append(prevAddedUser[:0], userKey...)
	}
	if err := merged.Err(); err != nil {
		return nil, err
	}
	// An output is created only for an entry about to be added, so the one
	// still open is never empty.
	if out != nil {
		if err := out.finish(); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// claimPlanLocked marks the plan's inputs (and the L0 slot, if it takes it)
// held and accounts the job in the scheduler state. d.mu held.
func (d *DB) claimPlanLocked(plan *compactionPlan) {
	for _, in := range plan.inputs {
		for _, f := range in.Files {
			d.held.files[f.FileNum] = true
		}
	}
	if plan.l0 {
		d.held.l0 = true
	}
	d.compactions++
}

// releasePlanLocked undoes claimPlanLocked once the job finishes. d.mu held.
func (d *DB) releasePlanLocked(plan *compactionPlan) {
	for _, in := range plan.inputs {
		for _, f := range in.Files {
			delete(d.held.files, f.FileNum)
		}
	}
	if plan.l0 {
		d.held.l0 = false
	}
	d.compactions--
}

// maybeScheduleCompactionLocked starts compaction workers while runnable
// plans exist and job slots are free. One MaxBackgroundJobs slot is always
// reserved for the flush worker — flush preempts compaction — so up to
// MaxBackgroundJobs-1 compaction jobs run concurrently on disjoint
// level/key-range pairs. d.mu held.
func (d *DB) maybeScheduleCompactionLocked() {
	if d.opts.ReadOnly {
		return
	}
	if d.closed || d.bgErr != nil || d.compactionsHalted {
		return
	}
	if d.manualWaiters > 0 {
		// A manual CompactRange job is waiting to claim its plan; starting
		// more background jobs here could starve it forever.
		return
	}
	maxWorkers := d.opts.MaxBackgroundJobs - 1
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	for d.compactions < maxWorkers {
		plan := pickLeveled(d.current, &d.opts, d.held)
		if plan == nil {
			return
		}
		d.claimPlanLocked(plan)
		// finishJob records the job's failure; no caller waits for it.
		go func() { _ = d.finishJob(plan, d.runCompactionPlan(plan, true)) }()
	}
	// Every job slot is taken; note whether runnable work had to queue.
	if pickLeveled(d.current, &d.opts, d.held) != nil {
		d.metSchedDeferred.Add(1)
	}
}

// finishJob ends a claimed job, background or CompactRange's, with the
// error runCompactionPlan returned. It releases the claim, then classifies
// err: a preemption (errPreempted) is no failure; an abort (outputs removed,
// inputs retained, nothing installed) halts background compaction without
// poisoning the DB — out of space is no reason to stop writes, and the next
// successful flush clears the halt — while any other failure, a failed
// manifest install included, degrades the DB. Last it re-arms the scheduler
// and wakes waiters. It returns what CompactRange reports: nil, the abort, or
// the ErrDegraded-wrapped failure.
func (d *DB) finishJob(plan *compactionPlan, err error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.releasePlanLocked(plan)
	var aborted *compactionAbortedError
	switch {
	case err == nil, errors.Is(err, errPreempted):
	case errors.As(err, &aborted):
		d.compactionsHalted = true
		d.opts.Logger("lsm: compactions halted (aborted, inputs retained): %v", aborted.err)
	default:
		err = fmt.Errorf("compaction: %w", err)
		d.setBGErrLocked(err)
		err = errDegraded(err)
	}
	d.maybeScheduleCompactionLocked()
	d.bgCond.Broadcast()
	return err
}

// compactionAbortedError marks a compaction failure that left no partial
// state behind: outputs removed, inputs retained, manifest untouched. It is
// recoverable by retrying once the cause (out of space) clears, so it must
// not poison the DB. The halt is per-job: other in-flight jobs finish and
// install normally.
type compactionAbortedError struct{ err error }

func (e *compactionAbortedError) Error() string {
	return fmt.Sprintf("lsm: compaction aborted, inputs retained: %v", e.err)
}

func (e *compactionAbortedError) Unwrap() error { return e.err }

// errPreempted ends a background job that a waiting CompactRange plan takes
// as input: RunCompaction removes what the job wrote and nothing is
// installed (see backgroundFileNum).
var errPreempted = errors.New("lsm: compaction preempted by CompactRange")

// runCompactionPlan executes one plan (local or offloaded) and installs the
// resulting version edit. The caller must have claimed the plan. A background
// job run in-process takes its output numbers from backgroundFileNum, so a
// waiting CompactRange can preempt it; an offloaded one cannot be, because
// its worker would retry the allocator's refusal as a failed attempt.
func (d *DB) runCompactionPlan(plan *compactionPlan, background bool) error {
	edit := &manifest.VersionEdit{}
	for _, in := range plan.inputs {
		for _, f := range in.Files {
			edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: in.Level, FileNum: f.FileNum})
		}
	}

	d.mu.Lock()
	smallestSnap := d.smallestSnapshotLocked()
	d.mu.Unlock()

	job := CompactionJob{
		Dir:              d.dir,
		Inputs:           plan.inputs,
		OutputLevel:      plan.outputLevel,
		Bottommost:       plan.bottommost,
		SmallestSnapshot: uint64(smallestSnap),
		TargetFileSize:   d.opts.TargetFileSize,
		WriterOptions:    d.opts.tableOptions(),
	}
	compactor, alloc := d.opts.Compactor, d.newFileNum
	if compactor == nil {
		compactor = &LocalCompactor{FS: d.fs, Wrapper: d.wrapper}
		if background {
			alloc = d.backgroundFileNum
		}
	}
	issued := &issuedNums{alloc: alloc, nums: map[uint64]bool{}}
	res, err := compactor.Compact(job, issued.next)
	if err == nil {
		if err = issued.check(res.Outputs); err != nil {
			// Nothing of the result is installed. Every table created
			// under a number issued to the job is removed; the numbers
			// it names otherwise are not the job's to remove.
			for _, num := range issued.list() {
				d.removeOrphanSST(sstFileName(d.dir, num))
			}
		}
	}
	if err != nil {
		if errors.Is(err, vfs.ErrNoSpace) || errors.Is(err, ErrJobLost) {
			// RunCompaction (local or remote) aborted and cleaned up its
			// outputs — or the orchestrator lost every worker lease and
			// swept the partial outputs itself. Either way nothing was
			// installed and the inputs are retained, so this is retryable.
			return &compactionAbortedError{err: err}
		}
		return err
	}
	d.metCompRead.Add(res.BytesRead)
	d.metCompWrite.Add(res.BytesWritten)
	for _, out := range res.Outputs {
		meta := out
		// Seq orders L0 files, which only a flush writes; outputs install
		// with 0 whatever the (possibly offloaded) result says.
		meta.Seq = 0
		edit.Added = append(edit.Added, manifest.AddedFile{Level: plan.outputLevel, Meta: meta})
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.applyEditLocked(edit); err != nil {
		return err
	}
	d.metCompact.Add(1)
	d.deleteObsoleteLocked()
	d.bgCond.Broadcast()
	return nil
}

// issuedNums is one job's file-number allocator: it records every number it
// hands out, so that the job's result is installed only if its outputs are
// numbered by it. A Compactor is trusted with the allocator, not with the
// result: an offloaded job's result is a worker's JSON, relayed.
type issuedNums struct {
	alloc func() (uint64, error)
	mu    sync.Mutex
	nums  map[uint64]bool
}

func (n *issuedNums) next() (uint64, error) {
	num, err := n.alloc()
	if err == nil {
		n.mu.Lock()
		n.nums[num] = true
		n.mu.Unlock()
	}
	return num, err
}

// check refuses a result that names a table under a number not issued for
// the job (an input's, or one issued to nobody) or names one number twice.
// The refusal wraps ErrJobLost: the job ends like a lost one, its inputs
// retained and nothing installed.
func (n *issuedNums) check(outs []manifest.FileMetadata) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	named := make(map[uint64]bool, len(outs))
	for _, o := range outs {
		if !n.nums[o.FileNum] || named[o.FileNum] {
			return fmt.Errorf("lsm: compaction result names table %d, which was not issued to the job or is named twice: %w", o.FileNum, ErrJobLost)
		}
		named[o.FileNum] = true
	}
	return nil
}

// list returns the numbers issued so far.
func (n *issuedNums) list() []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	nums := make([]uint64, 0, len(n.nums))
	for num := range n.nums {
		nums = append(nums, num)
	}
	return nums
}

// CompactRange flushes the memtable, then compacts the whole key space and
// waits for the result to install.
//
// That is one job (pickManual): it merges every file above the bottom level
// with the bottom-level files that overlap their key range, and runs
// bottommost: what survives is the newest version of each live key (plus
// what a pinned snapshot still needs), with no tombstone left to hide
// anything. When nothing lives above the bottom level no job runs.
//
// The manual job is claimed like any other (the level-0 slot included) and
// finished by the same finishJob, so a failed install degrades the DB here
// too. Two concurrent CompactRange callers, or a manual job racing a
// background pick, can never install overlapping edits. While the plan waits
// for in-flight background jobs, it preempts them: each stops at its next
// output file instead of finishing tables the plan would rewrite at once, so
// what CompactRange costs does not depend on how far background compaction
// had got when it was called.
func (d *DB) CompactRange() error {
	if d.opts.ReadOnly {
		return ErrReadOnly
	}
	if err := d.Flush(); err != nil {
		return err
	}
	plan, err := d.claimManual()
	if err != nil || plan == nil {
		return err
	}
	return d.finishJob(plan, d.runCompactionPlan(plan, false))
}

// claimManual claims CompactRange's plan, or returns nil when there is
// nothing to do. It waits while the plan conflicts with an in-flight job —
// rebuilding it from the then-current version after every wait, never
// running a stale pick — and, when it picks nothing, while jobs are in
// flight.
func (d *DB) claimManual() (*compactionPlan, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.manualWaiters++
	defer func() {
		d.manualWaiters--
		d.preempt = false
		// Background scheduling was suppressed while this job waited. Re-arm
		// it on the way out — also when leaving without a plan — or a writer
		// stalled on the L0 limit that deferred to this job sleeps forever.
		d.maybeScheduleCompactionLocked()
		d.bgCond.Broadcast()
	}()
	for {
		if d.closed {
			return nil, ErrClosed
		}
		if d.bgErr != nil {
			return nil, errDegraded(d.bgErr)
		}
		plan := pickManual(d.current)
		switch {
		case plan != nil && !d.held.conflicts(plan):
			d.claimPlanLocked(plan)
			return plan, nil
		case plan == nil && d.compactions == 0:
			return nil, nil
		}
		// The plan takes every background job's inputs as its own.
		d.preempt = plan != nil
		d.bgCond.Wait()
	}
}

// backgroundFileNum is newFileNum for background jobs run in-process: while
// a CompactRange plan waits (d.preempt) it refuses with errPreempted,
// which aborts the job at its next output file and releases its claim.
func (d *DB) backgroundFileNum() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.preempt {
		return 0, errPreempted
	}
	return d.allocFileNum(), nil
}
