package lsm

import (
	"sort"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
)

// The compaction policy. pick and pickManual are the only code that reads
// Options.CompactionStyle; what a style decides about a job travels in the
// plan they return, so the scheduler, the executor and CompactRange never ask.
// Both are pure functions of a Version, the Options and what in-flight jobs
// hold, and table-testable without a DB.

// inFlight is what running compaction jobs hold: their claimed input files,
// and whether one of them holds the level-0 slot. At most one job may: L0
// files overlap arbitrarily, and files flushed after an L0 job started are not
// claimed by it, so a second L0 job's outputs could interleave the first's at
// the base level (or, under universal, break L0's newest-first run order).
type inFlight struct {
	files map[uint64]bool
	l0    bool
}

// conflicts reports whether plan cannot run beside the held jobs: one of its
// inputs is claimed, or it needs the L0 slot while another job holds it.
// Because a leveled plan claims its output level's whole overlap, any key-range
// conflict between two plans surfaces here as a shared input file.
func (h inFlight) conflicts(plan *compactionPlan) bool {
	if plan.l0 && h.l0 {
		return true
	}
	for _, in := range plan.inputs {
		for _, f := range in.Files {
			if h.files[f.FileNum] {
				return true
			}
		}
	}
	return false
}

// compactionPlan is one pick: which files move where, and everything the
// style decides about how the job runs.
type compactionPlan struct {
	inputs      []JobLevel
	outputLevel int
	bottommost  bool
	// l0 marks a plan that holds the level-0 slot (see inFlight).
	l0                bool
	targetFileSize    uint64
	maxSubcompactions int
	// outputSeq is the run sequence the outputs take: under universal the
	// oldest input's, so the merged run keeps its place in L0; 0 otherwise.
	outputSeq uint64
	// dropOnly plans delete their inputs without merging (FIFO).
	dropOnly bool
	// settles marks CompactRange's leveled plan: it takes everything above
	// the bottom level, so CompactRange runs it alone instead of draining.
	settles bool
}

// pick chooses the next runnable compaction of v, or nil.
func pick(v *manifest.Version, o *Options, held inFlight) *compactionPlan {
	switch o.CompactionStyle {
	case CompactionUniversal:
		return pickUniversal(v, o, held)
	case CompactionFIFO:
		return pickFIFO(v, o, held)
	default:
		return pickLeveled(v, o, held)
	}
}

// pickManual is CompactRange's pick. Under leveled compaction it is one plan
// merging every file above the bottom level, with the bottom-level files that
// overlap them, into the bottom level — built whether or not it conflicts
// with held (CompactRange waits until it does not) — or nil when nothing lives
// above the bottom level. Under universal and FIFO it is the style's own
// pick, which CompactRange drains to quiescence.
func pickManual(v *manifest.Version, o *Options, held inFlight) *compactionPlan {
	if o.CompactionStyle != CompactionLeveled {
		return pick(v, o, held)
	}
	plan := newLeveledPlan(v, o, 0, v.Levels[0], manifest.NumLevels-1)
	if plan != nil {
		plan.settles = true
	}
	return plan
}

// l0Stalled reports whether writes must wait for compaction to drain L0.
// FIFO is exempt: it never merges L0, so a file-count stall would never
// clear — FIFO bounds data by total size instead.
func l0Stalled(v *manifest.Version, o *Options) bool {
	return o.CompactionStyle != CompactionFIFO && len(v.Levels[0]) >= l0StopWritesTrigger
}

// levelSizeMultiplier is the fanout between level targets.
const levelSizeMultiplier = 10

// levelTarget returns the size target for a level under leveled compaction.
func levelTarget(o *Options, level int) uint64 {
	t := o.BaseLevelSize
	for i := 1; i < level; i++ {
		t *= levelSizeMultiplier
	}
	return t
}

// pickLeveled scores every level and tries candidates best-first, so one
// busy level does not block compacting the runner-up: disjoint level/key-range
// pairs (an L0→L1 job and an L2→L3 job, say) run concurrently.
func pickLeveled(v *manifest.Version, o *Options, held inFlight) *compactionPlan {
	type scored struct {
		level int
		score float64
	}
	var cands []scored
	// Score L0 by file count, deeper levels by size vs target.
	if s := float64(len(v.Levels[0])) / float64(o.L0CompactionTrigger); s >= 1 {
		cands = append(cands, scored{0, s})
	}
	for lvl := 1; lvl < manifest.NumLevels-1; lvl++ {
		if s := float64(v.LevelSize(lvl)) / float64(levelTarget(o, lvl)); s >= 1 {
			cands = append(cands, scored{lvl, s})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	for _, c := range cands {
		if plan := tryLeveled(v, o, held, c.level); plan != nil {
			return plan
		}
	}
	return nil
}

// tryLeveled builds a conflict-free plan compacting out of level, or nil.
func tryLeveled(v *manifest.Version, o *Options, held inFlight, level int) *compactionPlan {
	if level == 0 {
		// All of L0 compacts at once, holding the L0 slot.
		if plan := newLeveledPlan(v, o, 0, v.Levels[0], 1); plan != nil && !held.conflicts(plan) {
			return plan
		}
		return nil
	}
	// Try each idle file in turn: one busy key range (or a busy overlap at
	// the output level) doesn't block the rest of the level.
	for _, f := range v.Levels[level] {
		if held.files[f.FileNum] {
			continue
		}
		plan := newLeveledPlan(v, o, level, []*manifest.FileMetadata{f}, level+1)
		if !held.conflicts(plan) {
			return plan
		}
	}
	return nil
}

// newLeveledPlan assembles, without checking conflicts, a plan that merges
// inputs0 (files of level), every file of the levels between level and
// outputLevel, and every outputLevel file overlapping their key hull into
// outputLevel. Returns nil when nothing above outputLevel is an input.
func newLeveledPlan(v *manifest.Version, o *Options, level int, inputs0 []*manifest.FileMetadata, outputLevel int) *compactionPlan {
	plan := &compactionPlan{
		outputLevel:       outputLevel,
		l0:                level == 0 && len(inputs0) > 0,
		targetFileSize:    o.TargetFileSize,
		maxSubcompactions: o.MaxSubcompactions,
	}
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
	// Bottommost when no deeper level overlaps the hull, output files included.
	lo, hi := base.UserKey(smallest), base.UserKey(largest)
	plan.bottommost = true
	for lvl := outputLevel + 1; lvl < manifest.NumLevels && plan.bottommost; lvl++ {
		plan.bottommost = len(v.Overlapping(lvl, lo, hi)) == 0
	}
	return plan
}

// pickUniversal merges the oldest half of L0's sorted runs (at least two)
// into one run once there are L0CompactionTrigger of them.
func pickUniversal(v *manifest.Version, o *Options, held inFlight) *compactionPlan {
	runs := v.Levels[0] // newest first
	if len(runs) < max(o.L0CompactionTrigger, 2) {
		return nil
	}
	n := max(len(runs)/2, 2)
	oldest := runs[len(runs)-n:]
	plan := &compactionPlan{
		inputs:     []JobLevel{{Level: 0, Files: derefFiles(oldest)}},
		bottommost: n == len(runs),
		l0:         true,
		// A universal sorted run is exactly one file: splitting the merged
		// output would leave the run count unchanged, so compaction would
		// reschedule forever. That also rules out subcompactions, which
		// shard the output by key range.
		targetFileSize:    1 << 62,
		maxSubcompactions: 1,
		outputSeq:         oldest[len(oldest)-1].Seq,
	}
	if held.conflicts(plan) {
		return nil
	}
	return plan
}

// pickFIFO drops the oldest L0 files while their total size is over
// FIFOMaxTableSize.
func pickFIFO(v *manifest.Version, o *Options, held inFlight) *compactionPlan {
	var total uint64
	for _, f := range v.Levels[0] {
		total += f.Size
	}
	if total <= o.FIFOMaxTableSize || held.l0 {
		return nil
	}
	var victims []*manifest.FileMetadata
	for i := len(v.Levels[0]) - 1; i >= 0 && total > o.FIFOMaxTableSize; i-- {
		f := v.Levels[0][i]
		if held.files[f.FileNum] {
			break
		}
		victims = append(victims, f)
		total -= f.Size
	}
	if len(victims) == 0 {
		return nil
	}
	return &compactionPlan{inputs: []JobLevel{{Level: 0, Files: derefFiles(victims)}}, l0: true, dropOnly: true}
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
