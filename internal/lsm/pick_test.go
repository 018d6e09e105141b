package lsm

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
)

// testdata/pick.golden.json holds 43 picker cases — 22 hand-shaped (leveled
// score ties, a busy first file at L1, L2 and L4, an output-level overlap that
// widens the hull onto a deeper level, a tree with nothing above the bottom
// level, universal with 2, 3, 4 and 7 runs, FIFO with a busy victim) and 21
// seeded random trees over the three styles, some files busy,
// some with the L0 slot held — and the plans commit 14a4489's own pickers made
// of them. A test-package generator there built, for each case, a
// DB{opts, current, busyFiles, l0Jobs} (UniversalMaxRuns set equal to
// L0CompactionTrigger) and recorded pickCompactionLocked and the manual plan
// (leveled: newLeveledPlanLocked(0, L0, NumLevels-1); universal and FIFO: the
// style's pick), with the fields runCompactionPlan and CompactRange derived
// from the style: target file size and subcompaction limit (universal: 1<<62
// and 1; FIFO, which writes nothing: 0), the universal output run sequence,
// drop-only, and whether CompactRange runs the plan alone (leveled manual).
// Every key is an internal key of the named user key, sequence = file number.

type goldenFile struct {
	Num      uint64 `json:"num"`
	Size     uint64 `json:"size"`
	Seq      uint64 `json:"seq,omitempty"`
	Smallest string `json:"smallest"`
	Largest  string `json:"largest"`
}

type goldenLevel struct {
	Level int      `json:"level"`
	Files []uint64 `json:"files"`
}

type goldenPlan struct {
	Inputs            []goldenLevel `json:"inputs"`
	OutputLevel       int           `json:"output_level"`
	Bottommost        bool          `json:"bottommost"`
	L0                bool          `json:"l0"`
	TargetFileSize    uint64        `json:"target_file_size"`
	MaxSubcompactions int           `json:"max_subcompactions"`
	OutputSeq         uint64        `json:"output_seq"`
	DropOnly          bool          `json:"drop_only"`
	Settles           bool          `json:"settles"`
}

type goldenPickCase struct {
	Name              string                           `json:"name"`
	Style             string                           `json:"style"`
	L0Trigger         int                              `json:"l0_compaction_trigger"`
	BaseLevelSize     uint64                           `json:"base_level_size"`
	TargetFileSize    uint64                           `json:"target_file_size"`
	MaxSubcompactions int                              `json:"max_subcompactions"`
	FIFOMaxTableSize  uint64                           `json:"fifo_max_table_size"`
	Levels            [manifest.NumLevels][]goldenFile `json:"levels"`
	Busy              []uint64                         `json:"busy"`
	L0Held            bool                             `json:"l0_held"`
	Pick              *goldenPlan                      `json:"pick"`
	Manual            *goldenPlan                      `json:"manual"`
}

func (c *goldenPickCase) inputs(t *testing.T) (*manifest.Version, *Options, inFlight) {
	t.Helper()
	v := &manifest.Version{}
	for lvl, files := range c.Levels {
		for _, f := range files {
			v.Levels[lvl] = append(v.Levels[lvl], &manifest.FileMetadata{
				FileNum: f.Num, Size: f.Size, Seq: f.Seq,
				Smallest: base.MakeInternalKey([]byte(f.Smallest), base.SeqNum(f.Num), base.KindSet),
				Largest:  base.MakeInternalKey([]byte(f.Largest), base.SeqNum(f.Num), base.KindSet),
			})
		}
	}
	o := Options{
		L0CompactionTrigger: c.L0Trigger,
		BaseLevelSize:       c.BaseLevelSize,
		TargetFileSize:      c.TargetFileSize,
		MaxSubcompactions:   c.MaxSubcompactions,
		FIFOMaxTableSize:    c.FIFOMaxTableSize,
		CompactionStyle:     -1,
	}
	for _, s := range []CompactionStyle{CompactionLeveled, CompactionUniversal, CompactionFIFO} {
		if s.String() == c.Style {
			o.CompactionStyle = s
		}
	}
	if o.CompactionStyle < 0 {
		t.Fatalf("%s: unknown style %q", c.Name, c.Style)
	}
	o = o.withDefaults()
	held := inFlight{files: map[uint64]bool{}, l0: c.L0Held}
	for _, n := range c.Busy {
		held.files[n] = true
	}
	return v, &o, held
}

func goldenOf(p *compactionPlan) *goldenPlan {
	if p == nil {
		return nil
	}
	g := &goldenPlan{
		OutputLevel: p.outputLevel, Bottommost: p.bottommost, L0: p.l0,
		TargetFileSize: p.targetFileSize, MaxSubcompactions: p.maxSubcompactions,
		OutputSeq: p.outputSeq, DropOnly: p.dropOnly, Settles: p.settles,
	}
	for _, in := range p.inputs {
		gl := goldenLevel{Level: in.Level}
		for _, f := range in.Files {
			gl.Files = append(gl.Files, f.FileNum)
		}
		g.Inputs = append(g.Inputs, gl)
	}
	return g
}

func planString(g *goldenPlan) string {
	if g == nil {
		return "nil"
	}
	b, _ := json.Marshal(g)
	return string(b)
}

// TestPickGolden: pick and pickManual make, for every case of the golden,
// the plan the parent's pickers made — same inputs by level, output level,
// bottommost and L0 flags, and the job fields the style decides.
func TestPickGolden(t *testing.T) {
	var cases []goldenPickCase
	decodeStrict(t, readGolden(t, "pick.golden.json"), &cases)
	if len(cases) < 40 {
		t.Fatalf("golden holds %d cases", len(cases))
	}
	for _, c := range cases {
		v, o, held := c.inputs(t)
		if got := goldenOf(pick(v, o, held)); !reflect.DeepEqual(got, c.Pick) {
			t.Errorf("%s: pick = %s, golden %s", c.Name, planString(got), planString(c.Pick))
		}
		if got := goldenOf(pickManual(v, o, held)); !reflect.DeepEqual(got, c.Manual) {
			t.Errorf("%s: pickManual = %s, golden %s", c.Name, planString(got), planString(c.Manual))
		}
	}
}

// pickTree builds a Version from "level:num:lo-hi:size" specs; L0 files are
// listed newest first and take descending run sequences.
func pickTree(specs ...string) *manifest.Version {
	v := &manifest.Version{}
	for i, s := range specs {
		var lvl int
		var num, size uint64
		var lo, hi string
		if _, err := fmt.Sscanf(s, "%d:%d:%4s-%4s:%d", &lvl, &num, &lo, &hi, &size); err != nil {
			panic(fmt.Sprintf("spec %q: %v", s, err))
		}
		f := &manifest.FileMetadata{
			FileNum: num, Size: size,
			Smallest: base.MakeInternalKey([]byte(lo), base.SeqNum(num), base.KindSet),
			Largest:  base.MakeInternalKey([]byte(hi), base.SeqNum(num), base.KindSet),
		}
		if lvl == 0 {
			f.Seq = uint64(100 - i)
		}
		v.Levels[lvl] = append(v.Levels[lvl], f)
	}
	return v
}

func planFiles(p *compactionPlan) [][]uint64 {
	if p == nil {
		return nil
	}
	var out [][]uint64
	for _, in := range p.inputs {
		nums := []uint64{uint64(in.Level)}
		for _, f := range in.Files {
			nums = append(nums, f.FileNum)
		}
		out = append(out, nums)
	}
	return out
}

// TestPickShapes: the picker's rules on hand-built trees, no DB. Each want
// lists the plan's inputs as [level, file numbers...].
func TestPickShapes(t *testing.T) {
	held := func(l0 bool, busy ...uint64) inFlight {
		h := inFlight{files: map[uint64]bool{}, l0: l0}
		for _, n := range busy {
			h.files[n] = true
		}
		return h
	}
	leveled := Options{L0CompactionTrigger: 2, BaseLevelSize: 100}.withDefaults()
	universal := leveled
	universal.CompactionStyle = CompactionUniversal
	fifo := leveled
	fifo.CompactionStyle = CompactionFIFO
	fifo.FIFOMaxTableSize = 100

	// L0 at its trigger and L1 at its target: both score 1.0, and the tie
	// goes to the shallower level.
	tie := pickTree("0:1:a000-a500:10", "0:2:a100-a900:10",
		"1:3:a000-a300:50", "1:4:a400-a900:50", "2:5:a000-a900:1000")
	// A level-1 file over its target whose first file is busy.
	busyFirst := pickTree("1:1:a000-a300:80", "1:2:a400-a600:80",
		"2:3:a000-a200:10", "2:4:a450-a500:10")
	runs := func(n int) *manifest.Version {
		var specs []string
		for i := 0; i < n; i++ {
			specs = append(specs, fmt.Sprintf("0:%d:a000-a900:40", i+1))
		}
		return pickTree(specs...)
	}

	for _, tc := range []struct {
		name   string
		v      *manifest.Version
		o      Options
		held   inFlight
		manual bool
		want   [][]uint64
		check  func(*compactionPlan) bool
	}{
		{name: "tie goes to L0", v: tie, o: leveled, held: held(false),
			want: [][]uint64{{0, 1, 2}, {1, 3, 4}}},
		{name: "tie with L0 held goes to L1", v: tie, o: leveled, held: held(true),
			want: [][]uint64{{1, 3}, {2, 5}}},
		{name: "busy first file at L1 skipped", v: busyFirst, o: leveled, held: held(false, 1),
			want:  [][]uint64{{1, 2}, {2, 4}},
			check: func(p *compactionPlan) bool { return p.outputLevel == 2 && p.bottommost && !p.l0 }},
		{name: "busy overlap at the output level skipped", v: busyFirst, o: leveled, held: held(false, 3),
			want: [][]uint64{{1, 2}, {2, 4}}},
		{name: "universal two runs is bottommost", v: runs(2), o: universal, held: held(false),
			want: [][]uint64{{0, 1, 2}},
			check: func(p *compactionPlan) bool {
				return p.bottommost && p.l0 && p.outputSeq == 99 && p.maxSubcompactions == 1 && p.targetFileSize == 1<<62
			}},
		{name: "universal merges the oldest half", v: runs(5), o: universal, held: held(false),
			want:  [][]uint64{{0, 4, 5}},
			check: func(p *compactionPlan) bool { return !p.bottommost && p.outputSeq == 96 }},
		{name: "universal waits for the L0 slot", v: runs(5), o: universal, held: held(true)},
		{name: "FIFO drops oldest until under the cap", v: runs(4), o: fifo, held: held(false),
			want:  [][]uint64{{0, 4, 3}},
			check: func(p *compactionPlan) bool { return p.dropOnly && p.l0 }},
		{name: "FIFO stops at a busy victim", v: runs(4), o: fifo, held: held(false, 3),
			want: [][]uint64{{0, 4}}},
		{name: "FIFO with the oldest busy picks nothing", v: runs(4), o: fifo, held: held(false, 4)},
		{name: "manual over a busy tree still plans", v: tie, o: leveled, held: held(true, 1, 3), manual: true,
			want:  [][]uint64{{0, 1, 2}, {1, 3, 4}, {2, 5}},
			check: func(p *compactionPlan) bool { return p.settles && p.bottommost && p.outputLevel == 6 }},
		{name: "manual with nothing above the bottom", v: pickTree("6:1:a000-a900:10"), o: leveled,
			held: held(false), manual: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := pick(tc.v, &tc.o, tc.held)
			if tc.manual {
				p = pickManual(tc.v, &tc.o, tc.held)
			}
			if got := planFiles(p); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("plan inputs %v, want %v", got, tc.want)
			}
			if tc.check != nil && !tc.check(p) {
				t.Fatalf("plan %s", planString(goldenOf(p)))
			}
		})
	}
}
