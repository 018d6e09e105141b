package lsm

import (
	"sort"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
)

// The compaction policy: pickLeveled (background) and pickManual
// (CompactRange) are pure functions of a Version, the Options and what
// in-flight jobs hold, and table-testable without a DB.

// inFlight is what running compaction jobs hold: their claimed input files,
// and whether one of them holds the level-0 slot. At most one job may: L0
// files overlap arbitrarily, and files flushed after an L0 job started are not
// claimed by it, so a second L0 job's outputs could interleave the first's at
// the base level.
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

// compactionPlan is one pick: which files move where.
type compactionPlan struct {
	inputs      []JobLevel
	outputLevel int
	bottommost  bool
	// l0 marks a plan that holds the level-0 slot (see inFlight).
	l0 bool
}

// pickManual is CompactRange's pick: one plan merging every file above the
// bottom level, with the bottom-level files that overlap them, into the
// bottom level — built whether or not it conflicts with in-flight jobs
// (CompactRange waits until it does not) — or nil when nothing lives above
// the bottom level.
func pickManual(v *manifest.Version) *compactionPlan {
	return newLeveledPlan(v, 0, v.Levels[0], manifest.NumLevels-1)
}

// l0Stalled reports whether writes must wait for compaction to drain L0.
func l0Stalled(v *manifest.Version) bool {
	return len(v.Levels[0]) >= l0StopWritesTrigger
}

// levelSizeMultiplier is the fanout between level targets.
const levelSizeMultiplier = 10

// levelShape works out the leveled tree's shape from the tree itself, the
// rule RocksDB calls level_compaction_dynamic_level_bytes. The deepest
// non-empty level below L0, bottom, keeps its size; each level above it
// targets a tenth of the level below. The base level, where L0 merges, is the
// highest level whose target is still at least BaseLevelSize. That is the
// bottom level itself while its tenth is below it, and the last level of an
// empty tree. targets is set for base ≤ level ≤ bottom.
func levelShape(v *manifest.Version, o *Options) (base, bottom int, targets [manifest.NumLevels]uint64) {
	bottom = manifest.NumLevels - 1
	for bottom > 1 && len(v.Levels[bottom]) == 0 {
		bottom--
	}
	if len(v.Levels[bottom]) == 0 {
		return manifest.NumLevels - 1, manifest.NumLevels - 1, targets
	}
	base = bottom
	targets[bottom] = v.LevelSize(bottom)
	for base > 1 && targets[base]/levelSizeMultiplier >= o.BaseLevelSize {
		targets[base-1] = targets[base] / levelSizeMultiplier
		base--
	}
	return base, bottom, targets
}

// pickLeveled scores L0 and the levels from the base down to above the
// bottom, and tries candidates best-first, so one busy level does not block
// compacting the runner-up: disjoint level/key-range pairs (an L0 job and an
// L4→L5 job, say) run concurrently.
//
// A level above the base holds data only after the tree shrank or when the
// store comes from a build with fixed level targets. It is not scored: L0's
// job drains it, because newLeveledPlan carries every file of the levels
// between L0 and the base, so L0 never skips past it and the job's claim
// covers each file it carries.
func pickLeveled(v *manifest.Version, o *Options, held inFlight) *compactionPlan {
	base, bottom, targets := levelShape(v, o)
	type scored struct {
		level int
		score float64
	}
	var cands []scored
	// Score L0 by file count, the levels below it by size vs target. The
	// bottom level has no target to pass: nothing lies below it.
	if s := float64(len(v.Levels[0])) / float64(o.L0CompactionTrigger); s >= 1 {
		cands = append(cands, scored{0, s})
	}
	for lvl := base; lvl < bottom; lvl++ {
		if s := float64(v.LevelSize(lvl)) / float64(targets[lvl]); s >= 1 {
			cands = append(cands, scored{lvl, s})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	for _, c := range cands {
		out := c.level + 1
		if c.level == 0 {
			out = base
		}
		if plan := tryLeveled(v, held, c.level, out); plan != nil {
			return plan
		}
	}
	return nil
}

// tryLeveled builds a conflict-free plan compacting out of level into
// outputLevel, or nil.
func tryLeveled(v *manifest.Version, held inFlight, level, outputLevel int) *compactionPlan {
	if level == 0 {
		// All of L0 compacts at once, holding the L0 slot.
		if plan := newLeveledPlan(v, 0, v.Levels[0], outputLevel); plan != nil && !held.conflicts(plan) {
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
		plan := newLeveledPlan(v, level, []*manifest.FileMetadata{f}, outputLevel)
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
func newLeveledPlan(v *manifest.Version, level int, inputs0 []*manifest.FileMetadata, outputLevel int) *compactionPlan {
	plan := &compactionPlan{
		outputLevel: outputLevel,
		l0:          level == 0 && len(inputs0) > 0,
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
