package lsm

import (
	"errors"
	"fmt"

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

	// FirstOutputFileNum is the first of MaxOutputFiles reserved file
	// numbers for outputs.
	FirstOutputFileNum uint64 `json:"first_output_file_num"`
	MaxOutputFiles     uint64 `json:"max_output_files"`

	// TargetFileSize caps each output file.
	TargetFileSize uint64 `json:"target_file_size"`

	// MaxSubcompactions splits the merge into up to this many key-range
	// shards executed on parallel goroutines (see subcompaction.go). 0 or
	// 1 runs the merge serially.
	MaxSubcompactions int `json:"max_subcompactions,omitempty"`

	// WriterOptions is the outputs' table format, the engine's own carried
	// verbatim (its fields encode inline: block_size, bloom_bits_per_key,
	// compression), so an offloaded worker writes the table the engine would.
	sstable.WriterOptions
}

// MaxJobOutputFiles is how many output file numbers the engine reserves for
// one compaction job (CompactionJob.MaxOutputFiles).
const MaxJobOutputFiles = 256

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

	// Subcompactions is the number of key-range shards the job ran as
	// (1 = serial merge).
	Subcompactions int `json:"subcompactions,omitempty"`
}

// Compactor executes compaction jobs. The local implementation runs
// in-process; internal/compactsvc ships jobs to a remote worker.
type Compactor interface {
	Compact(job CompactionJob) (CompactionResult, error)
}

// LocalCompactor runs compactions in-process against fs.
type LocalCompactor struct {
	FS      vfs.FS
	Wrapper FileWrapper
}

// Compact implements Compactor.
func (c *LocalCompactor) Compact(job CompactionJob) (CompactionResult, error) {
	return RunCompaction(c.FS, c.Wrapper, job)
}

// RunCompaction merges the job's inputs into output tables on fs. It is the
// single compaction implementation shared by the in-process path and the
// offloaded-compaction worker. When the job allows subcompactions the merge
// is sharded by key range across goroutines (subcompaction.go); otherwise
// it runs as one serial shard.
//
// Failure is abort-and-retain-inputs: no manifest state changes until the
// caller installs the returned edit, so on any error (ENOSPC on an output
// being the expected one) every output file created so far is closed and
// removed — releasing its quota and its DEK registration — and the inputs
// remain the authoritative data. The caller can simply retry later.
func RunCompaction(fs vfs.FS, wrapper FileWrapper, job CompactionJob) (CompactionResult, error) {
	if wrapper == nil {
		wrapper = NopWrapper{}
	}
	bounds := subcompactionBoundaries(job)
	res := CompactionResult{Subcompactions: len(bounds) + 1}
	for _, lvl := range job.Inputs {
		for _, f := range lvl.Files {
			res.BytesRead += int64(f.Size)
		}
	}
	outs, err := runShardedCompaction(fs, wrapper, job, bounds)
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

// claimPlanLocked marks the plan's inputs (and the L0 slot, if it takes it)
// held and accounts the job in the scheduler state and metrics. d.mu held.
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
	metrics.Jobs.JobStarted()
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
	metrics.Jobs.JobDone()
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
		plan := pick(d.current, &d.opts, d.held)
		if plan == nil {
			return
		}
		d.claimPlanLocked(plan)
		// finishJob records the job's failure; no caller waits for it.
		go func() { _ = d.finishJob(plan, d.runCompactionPlan(plan)) }()
	}
	// Every job slot is taken; note whether runnable work had to queue.
	if pick(d.current, &d.opts, d.held) != nil {
		d.metSchedDeferred.Add(1)
		metrics.Jobs.SchedDeferred.Add(1)
	}
}

// finishJob ends a claimed job, background or CompactRange's, with the
// error runCompactionPlan returned. It releases the claim, then classifies
// err: an abort (outputs removed, inputs retained, nothing installed) halts
// background compaction without poisoning the DB — out of space is no reason
// to stop writes, and the next successful flush clears the halt — while any
// other failure, a failed manifest install included, degrades the DB. Last it
// re-arms the scheduler and wakes waiters. It returns what CompactRange
// reports: nil, the abort, or the ErrDegraded-wrapped failure.
func (d *DB) finishJob(plan *compactionPlan, err error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.releasePlanLocked(plan)
	var aborted *compactionAbortedError
	switch {
	case err == nil:
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

// runCompactionPlan executes one plan (local or offloaded) and installs the
// resulting version edit. The caller must have claimed the plan.
func (d *DB) runCompactionPlan(plan *compactionPlan) error {
	edit := &manifest.VersionEdit{}
	for _, in := range plan.inputs {
		for _, f := range in.Files {
			edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: in.Level, FileNum: f.FileNum})
		}
	}

	if !plan.dropOnly {
		d.mu.Lock()
		firstNum := d.nextFileNum
		d.nextFileNum += MaxJobOutputFiles
		smallestSnap := d.smallestSnapshotLocked()
		d.mu.Unlock()

		job := CompactionJob{
			Dir:                d.dir,
			Inputs:             plan.inputs,
			OutputLevel:        plan.outputLevel,
			Bottommost:         plan.bottommost,
			SmallestSnapshot:   uint64(smallestSnap),
			FirstOutputFileNum: firstNum,
			MaxOutputFiles:     MaxJobOutputFiles,
			TargetFileSize:     plan.targetFileSize,
			MaxSubcompactions:  plan.maxSubcompactions,
			WriterOptions:      d.opts.tableOptions(),
		}
		compactor := d.opts.Compactor
		if compactor == nil {
			compactor = &LocalCompactor{FS: d.fs, Wrapper: d.wrapper}
		}
		res, err := compactor.Compact(job)
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
		metrics.Jobs.BytesRead.Add(res.BytesRead)
		metrics.Jobs.BytesWritten.Add(res.BytesWritten)
		if res.Subcompactions > 1 {
			d.metSubcomp.Add(int64(res.Subcompactions))
		}
		for _, out := range res.Outputs {
			meta := out
			meta.Seq = plan.outputSeq
			edit.Added = append(edit.Added, manifest.AddedFile{Level: plan.outputLevel, Meta: meta})
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	for _, a := range edit.Added {
		if a.Meta.DEKID != "" {
			d.dekIDs[a.Meta.FileNum] = a.Meta.DEKID
		}
	}
	if err := d.applyEditLocked(edit); err != nil {
		return err
	}
	d.metCompact.Add(1)
	d.deleteObsoleteLocked()
	d.bgCond.Broadcast()
	return nil
}

// CompactRange flushes the memtable, then compacts the whole key space and
// waits for the result to install.
//
// Under leveled compaction that is one job (pickManual): it merges every file
// above the bottom level with the bottom-level files that overlap their key
// range, and runs bottommost: what survives is the newest version of each
// live key (plus what a pinned snapshot still needs), with no tombstone left
// to hide anything. When nothing lives above the bottom level no job runs.
// Under universal and FIFO compaction it drains the style's own picks.
//
// Background jobs keep running: each manual job is claimed like any other
// (the level-0 slot included) and finished by the same finishJob, so a failed
// install degrades the DB here too. Two concurrent CompactRange callers, or a
// manual job racing a background pick, can never install overlapping edits.
func (d *DB) CompactRange() error {
	if d.opts.ReadOnly {
		return ErrReadOnly
	}
	if err := d.Flush(); err != nil {
		return err
	}
	for {
		plan, err := d.claimManual()
		if err != nil || plan == nil {
			return err
		}
		if err := d.finishJob(plan, d.runCompactionPlan(plan)); err != nil || plan.settles {
			return err
		}
	}
}

// claimManual claims CompactRange's next plan, or returns nil when there is
// nothing left to do. It waits while the plan conflicts with an in-flight job
// — rebuilding it from the then-current version after every wait, never
// running a stale pick — and, when the style picks nothing, while jobs that
// may re-arm the pick are in flight.
func (d *DB) claimManual() (*compactionPlan, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.manualWaiters++
	defer func() {
		d.manualWaiters--
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
		plan := pickManual(d.current, &d.opts, d.held)
		switch {
		case plan != nil && !d.held.conflicts(plan):
			d.claimPlanLocked(plan)
			return plan, nil
		case plan == nil && d.compactions == 0:
			return nil, nil
		}
		d.bgCond.Wait()
	}
}
