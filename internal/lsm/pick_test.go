package lsm

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
)

// testdata/pick.golden.json holds 21 leveled picker cases — 10 hand-shaped
// (score ties, a busy first file at L1, L2 and L4, an output-level overlap
// that widens the hull onto a deeper level, a tree with nothing above the
// bottom level, an empty tree) and 11 seeded random trees, some files busy,
// some with the L0 slot held — and the plans commit 14a4489's own pickers
// made of them. A test-package generator there built, for each case, a
// DB{opts, current, busyFiles, l0Jobs} and recorded pickCompactionLocked and
// the manual plan, newLeveledPlanLocked(0, L0, NumLevels-1), with the fields
// runCompactionPlan and CompactRange derived from them: target file size
// (the option's), subcompaction limit (this build has none and ignores it),
// output run sequence (0), drop-only (false), and whether CompactRange runs
// the plan alone (the manual plan does). Every key is an internal key of the
// named user key, sequence = file number. The cases of the universal and
// FIFO styles that build also had were dropped with those styles; the 21
// kept are byte for byte as recorded.
//
// The leveled background picks of eight cases were re-pinned when level
// targets came to be sized from the bottom level (levelShape): the plans
// recorded for them are this picker's. Their synthetic trees end in a small
// bottom level, so under that rule the levels the older picker compacted
// lie above the base, are not scored, and drain only with L0's job:
// leveled-tie-all-1.0 now merges L0, L1 and L2 into its 3 KB L3;
// leveled-tie-l0-held, leveled-tie-l0-held-l1-first-busy,
// leveled-tie-l1-l3, leveled-busy-first-L1 and leveled-output-widens-hull
// pick nothing. random-01-leveled picks nothing because its L3 is under its
// new 2.2 MB target (1 MB before) and the L2 file over its target overlaps
// busy L3 files; random-05-leveled picks nothing because its L4 is now the
// bottom level and its L0 job conflicts with busy L0 files. Every manual
// plan is unchanged.

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
	Inputs         []goldenLevel `json:"inputs"`
	OutputLevel    int           `json:"output_level"`
	Bottommost     bool          `json:"bottommost"`
	L0             bool          `json:"l0"`
	TargetFileSize uint64        `json:"target_file_size"`
	OutputSeq      uint64        `json:"output_seq"`
	DropOnly       bool          `json:"drop_only"`
	Settles        bool          `json:"settles"`
}

type goldenPickCase struct {
	Name           string                           `json:"name"`
	Style          string                           `json:"style"`
	L0Trigger      int                              `json:"l0_compaction_trigger"`
	BaseLevelSize  uint64                           `json:"base_level_size"`
	TargetFileSize uint64                           `json:"target_file_size"`
	Levels         [manifest.NumLevels][]goldenFile `json:"levels"`
	Busy           []uint64                         `json:"busy"`
	L0Held         bool                             `json:"l0_held"`
	Pick           *goldenPlan                      `json:"pick"`
	Manual         *goldenPlan                      `json:"manual"`
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
	if c.Style != "leveled" {
		t.Fatalf("%s: style %q", c.Name, c.Style)
	}
	o := Options{
		L0CompactionTrigger: c.L0Trigger,
		BaseLevelSize:       c.BaseLevelSize,
		TargetFileSize:      c.TargetFileSize,
	}.withDefaults()
	held := inFlight{files: map[uint64]bool{}, l0: c.L0Held}
	for _, n := range c.Busy {
		held.files[n] = true
	}
	return v, &o, held
}

// goldenOf records p as the golden does. The job fields the older build's
// plan carried are what this build derives for every plan: the option's
// target file size, output sequence 0, never drop-only, and settles for the
// manual plan.
func goldenOf(p *compactionPlan, o *Options, manual bool) *goldenPlan {
	if p == nil {
		return nil
	}
	g := &goldenPlan{
		OutputLevel: p.outputLevel, Bottommost: p.bottommost, L0: p.l0,
		TargetFileSize: o.TargetFileSize, Settles: manual,
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

// TestPickGolden: pickLeveled and pickManual make, for every case of the
// golden, the plan the parent's pickers made — same inputs by level, output
// level, bottommost and L0 flags, and the job fields the plan carried. The
// golden's shard counts and FIFO size cap, options this build no longer
// has, are left out.
func TestPickGolden(t *testing.T) {
	var cases []goldenPickCase
	golden := dropField(t, readGolden(t, "pick.golden.json"), "max_subcompactions")
	decodeStrict(t, dropField(t, golden, "fifo_max_table_size"), &cases)
	if len(cases) != 21 {
		t.Fatalf("golden holds %d cases", len(cases))
	}
	for _, c := range cases {
		v, o, held := c.inputs(t)
		if got := goldenOf(pickLeveled(v, o, held), o, false); !reflect.DeepEqual(got, c.Pick) {
			t.Errorf("%s: pick = %s, golden %s", c.Name, planString(got), planString(c.Pick))
		}
		if got := goldenOf(pickManual(v), o, true); !reflect.DeepEqual(got, c.Manual) {
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

	// L0 at its trigger and L1 at its target: both score 1.0, and the tie
	// goes to the shallower level.
	tie := pickTree("0:1:a000-a500:10", "0:2:a100-a900:10",
		"1:3:a000-a300:50", "1:4:a400-a900:50", "2:5:a000-a900:1000")
	// A level-1 file over its target whose first file is busy. The bottom
	// level's 1000 bytes make L1 the base, with a target of 100.
	busyFirst := pickTree("1:1:a000-a300:80", "1:2:a400-a600:80",
		"2:3:a000-a200:500", "2:4:a450-a500:500")
	// L0 at the trigger over a tree whose bottom is L6 (500 bytes: the base
	// is L6 too), with two files left above the base in L2.
	aboveBase := pickTree("0:1:a000-a500:10", "0:2:a100-a900:10",
		"2:3:a000-a300:30", "2:4:a600-a700:30",
		"6:5:a000-a400:250", "6:6:a500-a900:250")
	// L0 at the trigger over a bottom level of size bytes.
	overBottom := func(size uint64) *manifest.Version {
		return pickTree("0:1:a000-a500:10", "0:2:a100-a900:10",
			fmt.Sprintf("6:3:a000-a900:%d", size))
	}
	defaults := Options{}.withDefaults()
	outputs := func(level int) func(*compactionPlan) bool {
		return func(p *compactionPlan) bool { return p.outputLevel == level }
	}
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
		{name: "L0 of an empty tree goes to the bottom level", v: runs(8), o: defaults, held: held(false),
			want:  [][]uint64{{0, 1, 2, 3, 4, 5, 6, 7, 8}},
			check: func(p *compactionPlan) bool { return p.outputLevel == 6 && p.bottommost && p.l0 }},
		{name: "L0 at 7 files waits for the eighth", v: runs(7), o: defaults, held: held(false)},
		{name: "bottom under ten base sizes is the base", v: overBottom(999), o: leveled, held: held(false),
			want: [][]uint64{{0, 1, 2}, {6, 3}}, check: outputs(6)},
		{name: "bottom at ten base sizes moves the base up", v: overBottom(1000), o: leveled, held: held(false),
			want: [][]uint64{{0, 1, 2}}, check: outputs(5)},
		{name: "a level above the base drains with L0", v: aboveBase, o: leveled, held: held(false),
			want: [][]uint64{{0, 1, 2}, {2, 3, 4}, {6, 5, 6}}, check: outputs(6)},
		{name: "a level above the base is not scored alone", v: pickTree("2:3:a000-a300:30", "6:5:a000-a400:250"),
			o: leveled, held: held(false)},
		{name: "L0 waits while a job holds a file above the base", v: aboveBase, o: leveled, held: held(false, 4)},
		{name: "manual over a busy tree still plans", v: tie, o: leveled, held: held(true, 1, 3), manual: true,
			want:  [][]uint64{{0, 1, 2}, {1, 3, 4}, {2, 5}},
			check: func(p *compactionPlan) bool { return p.bottommost && p.outputLevel == 6 }},
		{name: "manual with nothing above the bottom", v: pickTree("6:1:a000-a900:10"), o: leveled,
			held: held(false), manual: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := pickLeveled(tc.v, &tc.o, tc.held)
			if tc.manual {
				p = pickManual(tc.v)
			}
			if got := planFiles(p); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("plan inputs %v, want %v", got, tc.want)
			}
			if tc.check != nil && !tc.check(p) {
				t.Fatalf("plan %s", planString(goldenOf(p, &tc.o, tc.manual)))
			}
		})
	}
}
