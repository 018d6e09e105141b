package lsm

import (
	"errors"
	"fmt"
	"sort"

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

// compactionPlan is an internal pick: which files move where.
type compactionPlan struct {
	inputs      []JobLevel
	outputLevel int
	bottommost  bool
	// l0 marks plans that consume level-0 inputs; at most one such job may
	// be in flight (see tryLeveledPlanLocked).
	l0 bool
	// universal outputs inherit the oldest input's run sequence.
	universalSeq uint64
	// fifoOnly plans delete inputs without merging.
	fifoOnly bool
	busy     []uint64 // file numbers locked by this plan
}

// levelSizeMultiplier is the fanout between level targets.
const levelSizeMultiplier = 10

// levelTarget returns the size target for a level under leveled compaction.
func (d *DB) levelTarget(level int) uint64 {
	t := d.opts.BaseLevelSize
	for i := 1; i < level; i++ {
		t *= levelSizeMultiplier
	}
	return t
}

// pickCompactionLocked chooses the next runnable compaction, or nil. The
// returned plan is built but not claimed. d.mu held.
func (d *DB) pickCompactionLocked() *compactionPlan {
	switch d.opts.CompactionStyle {
	case CompactionUniversal:
		return d.pickUniversalLocked()
	case CompactionFIFO:
		return d.pickFIFOLocked()
	default:
		return d.pickLeveledLocked()
	}
}

func (d *DB) anyBusy(files []*manifest.FileMetadata) bool {
	for _, f := range files {
		if d.busyFiles[f.FileNum] {
			return true
		}
	}
	return false
}

// planConflictsLocked reports whether the plan cannot run now: one of its
// inputs is claimed by an in-flight job, or it needs the exclusive L0 slot
// while another L0 job holds it. d.mu held.
func (d *DB) planConflictsLocked(plan *compactionPlan) bool {
	for _, num := range plan.busy {
		if d.busyFiles[num] {
			return true
		}
	}
	return plan.l0 && d.l0Jobs > 0
}

// pickLeveledLocked scores every level and tries candidates best-first, so
// one busy level no longer blocks compacting the runner-up — disjoint
// level/key-range pairs (an L0→L1 job and an L2→L3 job, say) run
// concurrently. d.mu held.
func (d *DB) pickLeveledLocked() *compactionPlan {
	v := d.current
	type scored struct {
		level int
		score float64
	}
	var cands []scored
	// Score L0 by file count, deeper levels by size vs target.
	if s := float64(len(v.Levels[0])) / float64(d.opts.L0CompactionTrigger); s >= 1 {
		cands = append(cands, scored{0, s})
	}
	for lvl := 1; lvl < manifest.NumLevels-1; lvl++ {
		if s := float64(v.LevelSize(lvl)) / float64(d.levelTarget(lvl)); s >= 1 {
			cands = append(cands, scored{lvl, s})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	for _, c := range cands {
		if plan := d.tryLeveledPlanLocked(c.level); plan != nil {
			return plan
		}
	}
	return nil
}

// tryLeveledPlanLocked builds a conflict-free plan compacting out of level,
// or nil. d.mu held.
func (d *DB) tryLeveledPlanLocked(level int) *compactionPlan {
	v := d.current
	if level == 0 {
		// All of L0 compacts at once, and at most one job may consume L0:
		// its files overlap arbitrarily, and files flushed after a first
		// L0 job started are not claimed by it, so a second L0 job's
		// outputs could interleave the first's at the base level.
		if len(v.Levels[0]) == 0 {
			return nil
		}
		plan := d.newLeveledPlanLocked(0, v.Levels[0], 1)
		if d.planConflictsLocked(plan) {
			return nil
		}
		return plan
	}
	// Try each idle file in turn: one busy key range (or a busy overlap at
	// the output level) doesn't block the rest of the level.
	for _, f := range v.Levels[level] {
		if d.busyFiles[f.FileNum] {
			continue
		}
		plan := d.newLeveledPlanLocked(level, []*manifest.FileMetadata{f}, level+1)
		if !d.planConflictsLocked(plan) {
			return plan
		}
	}
	return nil
}

// newLeveledPlanLocked assembles, without checking conflicts, a plan that
// merges inputs0 (files of level), every file of the levels between level and
// outputLevel, and every outputLevel file overlapping their key hull into
// outputLevel. Claiming the output level's whole overlap is what makes
// concurrently running plans disjoint: any range conflict between two jobs
// would surface as a shared input file. Returns nil when nothing above
// outputLevel is an input. d.mu held.
func (d *DB) newLeveledPlanLocked(level int, inputs0 []*manifest.FileMetadata, outputLevel int) *compactionPlan {
	v := d.current
	plan := &compactionPlan{outputLevel: outputLevel, l0: level == 0 && len(inputs0) > 0}
	var smallest, largest []byte
	add := func(lvl int, files []*manifest.FileMetadata) {
		if len(files) > 0 {
			plan.inputs = append(plan.inputs, JobLevel{Level: lvl, Files: derefFiles(files)})
			smallest, largest = widenRange(smallest, largest, files)
		}
	}
	add(level, inputs0)
	for lvl := level + 1; lvl < outputLevel; lvl++ {
		add(lvl, v.Levels[lvl])
	}
	if len(plan.inputs) == 0 {
		return nil
	}
	add(outputLevel, v.Overlapping(outputLevel, base.UserKey(smallest), base.UserKey(largest)))
	plan.bottommost = d.isBottommostLocked(outputLevel, base.UserKey(smallest), base.UserKey(largest))
	for _, in := range plan.inputs {
		for _, f := range in.Files {
			plan.busy = append(plan.busy, f.FileNum)
		}
	}
	return plan
}

func (d *DB) pickUniversalLocked() *compactionPlan {
	v := d.current
	runs := v.Levels[0] // newest first
	if len(runs) < d.opts.UniversalMaxRuns {
		return nil
	}
	if d.l0Jobs > 0 {
		// Universal merges rewrite the run sequence; overlapping merges
		// would break the newest-first ordering invariant.
		return nil
	}
	// Merge the oldest half of the runs (at least two).
	n := len(runs) / 2
	if n < 2 {
		n = 2
	}
	oldest := runs[len(runs)-n:]
	if d.anyBusy(oldest) {
		return nil
	}
	plan := &compactionPlan{
		outputLevel:  0,
		bottommost:   n == len(runs),
		l0:           true,
		universalSeq: oldest[len(oldest)-1].Seq,
	}
	plan.inputs = []JobLevel{{Level: 0, Files: derefFiles(oldest)}}
	for _, f := range oldest {
		plan.busy = append(plan.busy, f.FileNum)
	}
	return plan
}

func (d *DB) pickFIFOLocked() *compactionPlan {
	v := d.current
	var total uint64
	for _, f := range v.Levels[0] {
		total += f.Size
	}
	if total <= d.opts.FIFOMaxTableSize {
		return nil
	}
	if d.l0Jobs > 0 {
		return nil
	}
	// Drop oldest files until under the cap.
	var victims []*manifest.FileMetadata
	for i := len(v.Levels[0]) - 1; i >= 0 && total > d.opts.FIFOMaxTableSize; i-- {
		f := v.Levels[0][i]
		if d.busyFiles[f.FileNum] {
			break
		}
		victims = append(victims, f)
		total -= f.Size
	}
	if len(victims) == 0 {
		return nil
	}
	plan := &compactionPlan{fifoOnly: true, outputLevel: 0, l0: true}
	plan.inputs = []JobLevel{{Level: 0, Files: derefFiles(victims)}}
	for _, f := range victims {
		plan.busy = append(plan.busy, f.FileNum)
	}
	return plan
}

// isBottommostLocked reports whether no level deeper than outputLevel has a
// file overlapping [smallestUser, largestUser].
func (d *DB) isBottommostLocked(outputLevel int, smallestUser, largestUser []byte) bool {
	for lvl := outputLevel + 1; lvl < manifest.NumLevels; lvl++ {
		if len(d.current.Overlapping(lvl, smallestUser, largestUser)) > 0 {
			return false
		}
	}
	return true
}

// widenRange extends the internal-key range [smallest, largest] (nil when
// empty) to cover files.
func widenRange(smallest, largest []byte, files []*manifest.FileMetadata) ([]byte, []byte) {
	for _, f := range files {
		if smallest == nil || base.CompareInternal(f.Smallest, smallest) < 0 {
			smallest = f.Smallest
		}
		if largest == nil || base.CompareInternal(f.Largest, largest) > 0 {
			largest = f.Largest
		}
	}
	return smallest, largest
}

func derefFiles(files []*manifest.FileMetadata) []manifest.FileMetadata {
	out := make([]manifest.FileMetadata, len(files))
	for i, f := range files {
		out[i] = *f
	}
	return out
}

// claimPlanLocked marks the plan's inputs busy and accounts the job in the
// scheduler state and metrics. d.mu held.
func (d *DB) claimPlanLocked(plan *compactionPlan) {
	for _, num := range plan.busy {
		d.busyFiles[num] = true
	}
	if plan.l0 {
		d.l0Jobs++
	}
	d.compactions++
	metrics.Jobs.JobStarted()
}

// releasePlanLocked undoes claimPlanLocked once the job finishes. d.mu held.
func (d *DB) releasePlanLocked(plan *compactionPlan) {
	for _, num := range plan.busy {
		delete(d.busyFiles, num)
	}
	if plan.l0 {
		d.l0Jobs--
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
		plan := d.pickCompactionLocked()
		if plan == nil {
			return
		}
		d.claimPlanLocked(plan)
		go d.compactionWorker(plan)
	}
	// Every job slot is taken; note whether runnable work had to queue.
	if d.pickCompactionLocked() != nil {
		d.metSchedDeferred.Add(1)
		metrics.Jobs.SchedDeferred.Add(1)
	}
}

func (d *DB) compactionWorker(plan *compactionPlan) {
	err := d.runCompactionPlan(plan)

	d.mu.Lock()
	d.releasePlanLocked(plan)
	var aborted *compactionAbortedError
	switch {
	case err == nil:
	case errors.As(err, &aborted):
		// The compaction aborted cleanly before touching the manifest: its
		// partial outputs were removed and the inputs retained, so the DB is
		// fully consistent. Out of space is not a reason to poison the write
		// path — halt background compactions until space reappears (a
		// successful flush clears the halt) instead of entering degraded mode.
		d.compactionsHalted = true
		d.opts.Logger("lsm: compactions halted (aborted, inputs retained): %v", aborted.err)
	case d.bgErr == nil:
		d.setBGErrLocked(fmt.Errorf("compaction: %w", err))
	}
	d.maybeScheduleCompactionLocked()
	d.bgCond.Broadcast()
	d.mu.Unlock()
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

	if !plan.fifoOnly {
		d.mu.Lock()
		firstNum := d.nextFileNum
		d.nextFileNum += MaxJobOutputFiles
		smallestSnap := d.smallestSnapshotLocked()
		d.mu.Unlock()

		targetSize := d.opts.TargetFileSize
		maxSub := d.opts.MaxSubcompactions
		if d.opts.CompactionStyle == CompactionUniversal {
			// A universal sorted run is exactly one file: splitting the
			// merged output would leave the run count unchanged, so
			// compaction would reschedule forever. That also rules out
			// subcompactions, which shard the output by key range.
			targetSize = 1 << 62
			maxSub = 1
		}
		job := CompactionJob{
			Dir:                d.dir,
			Inputs:             plan.inputs,
			OutputLevel:        plan.outputLevel,
			Bottommost:         plan.bottommost,
			SmallestSnapshot:   uint64(smallestSnap),
			FirstOutputFileNum: firstNum,
			MaxOutputFiles:     MaxJobOutputFiles,
			TargetFileSize:     targetSize,
			MaxSubcompactions:  maxSub,
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
			if d.opts.CompactionStyle == CompactionUniversal {
				meta.Seq = plan.universalSeq
			}
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

// CompactRange flushes the memtable, then compacts the whole key space into
// the bottom level as one job and waits for it to install.
//
// Under leveled compaction the job merges every file above the bottom level
// with the bottom-level files that overlap their key range, and runs
// bottommost: what survives is the newest version of each live key (plus
// what a pinned snapshot still needs), with no tombstone left to hide
// anything. When nothing lives above the bottom level no job runs. Under
// universal and FIFO compaction it drains the style's own picks instead.
//
// Background jobs keep running: the manual job claims its inputs like any
// other job (the level-0 slot included) and waits — rebuilding its plan from
// the then-current version after every wait, never running a stale pick —
// while a conflicting job is in flight. Two concurrent CompactRange callers,
// or a manual job racing a background pick, can therefore never install
// overlapping edits.
func (d *DB) CompactRange() error {
	if d.opts.ReadOnly {
		return ErrReadOnly
	}
	if err := d.Flush(); err != nil {
		return err
	}

	if d.opts.CompactionStyle != CompactionLeveled {
		return d.compactAllRuns()
	}

	plan, err := d.claimManualPlan()
	if err != nil || plan == nil {
		return err
	}
	err = d.runCompactionPlan(plan)
	d.finishManualPlan(plan)
	return err
}

// claimManualPlan builds CompactRange's one plan and claims it, waiting while
// any in-flight job holds a conflicting file — which every in-flight leveled
// job does, since each consumes a file above the bottom level. Returns a nil
// plan when there is nothing to compact.
func (d *DB) claimManualPlan() (*compactionPlan, error) {
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
		plan := d.newLeveledPlanLocked(0, d.current.Levels[0], manifest.NumLevels-1)
		if plan == nil {
			return nil, nil
		}
		if !d.planConflictsLocked(plan) {
			d.claimPlanLocked(plan)
			return plan, nil
		}
		d.bgCond.Wait()
	}
}

// finishManualPlan releases the manual job's claim and wakes waiters.
func (d *DB) finishManualPlan(plan *compactionPlan) {
	d.mu.Lock()
	d.releasePlanLocked(plan)
	d.maybeScheduleCompactionLocked()
	d.bgCond.Broadcast()
	d.mu.Unlock()
}

// compactAllRuns drains universal/FIFO picks until quiescent, riding the
// same claim discipline as the background workers.
func (d *DB) compactAllRuns() error {
	d.mu.Lock()
	for {
		if d.closed {
			d.mu.Unlock()
			return ErrClosed
		}
		if d.bgErr != nil {
			err := errDegraded(d.bgErr)
			d.mu.Unlock()
			return err
		}
		plan := d.pickCompactionLocked()
		if plan == nil {
			if d.compactions > 0 {
				// In-flight jobs may re-arm the pick once they install.
				d.bgCond.Wait()
				continue
			}
			d.mu.Unlock()
			return nil
		}
		d.claimPlanLocked(plan)
		d.mu.Unlock()
		err := d.runCompactionPlan(plan)
		d.mu.Lock()
		d.releasePlanLocked(plan)
		d.bgCond.Broadcast()
		if err != nil {
			d.mu.Unlock()
			return err
		}
	}
}
