package lsm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/vfs"
)

// compactLevel runs one whole-level lvl→lvl+1 job, the way a background
// worker runs a pick. The settle tree below is built with background
// compaction off, so no other job can conflict.
func compactLevel(t *testing.T, db *DB, lvl int) {
	t.Helper()
	db.mu.Lock()
	plan := newLeveledPlan(db.current, &db.opts, lvl, db.current.Levels[lvl], lvl+1)
	db.claimPlanLocked(plan)
	db.mu.Unlock()
	if err := db.finishJob(plan, db.runCompactionPlan(plan)); err != nil {
		t.Fatal(err)
	}
}

// openSettleTree builds, from seed 1, a plain tree whose shape does not
// depend on timing: background compaction is off, and every level move is a
// whole-level job the test runs itself. It leaves
//
//   - L6: keys 0..19999, settled by one CompactRange;
//   - L3: overwrites and deletes of keys 5000..14999;
//   - L1: more of both, several versions of a key each — merged while a
//     snapshot pinned them, which is released before the function returns;
//   - L0: a last round, flushed.
//
// It returns the open DB, its filesystem, and the live contents.
func openSettleTree(t *testing.T) (*DB, vfs.FS, map[string]string) {
	t.Helper()
	fs := vfs.NewMem()
	db, err := Open("db", Options{
		FS:                  fs,
		MemtableSize:        128 << 10,
		TargetFileSize:      64 << 10,
		BaseLevelSize:       1 << 40,
		L0CompactionTrigger: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	model := map[string]string{}
	round := func(ops, lo, hi int, delFrac float64) {
		t.Helper()
		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("k%06d", lo+rng.Intn(hi-lo))
			if rng.Float64() < delFrac {
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
				continue
			}
			v := fmt.Sprintf("%d-%x", i, rng.Int63())
			v += string(bytes.Repeat([]byte{'a' + byte(rng.Intn(26))}, 40+rng.Intn(100)))
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	round(8000, 0, 20000, 0)
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	round(6000, 5000, 15000, 0.2)
	for lvl := 0; lvl < 3; lvl++ {
		compactLevel(t, db, lvl)
	}
	round(2000, 5000, 15000, 0.2)
	snap := db.NewSnapshot()
	round(4000, 5000, 15000, 0.2)
	compactLevel(t, db, 0)
	snap.Release()
	round(3000, 5000, 15000, 0.2)
	return db, fs, model
}

// liveFiles returns the current version's files by file number.
func liveFiles(db *DB) map[uint64]manifest.FileMetadata {
	db.mu.Lock()
	defer db.mu.Unlock()
	files := map[uint64]manifest.FileMetadata{}
	for _, level := range db.current.Levels {
		for _, f := range level {
			files[f.FileNum] = *f
		}
	}
	return files
}

// TestCompactRangeRewritesOnce: CompactRange settles a tree with files in L0
// and three deeper levels as one job. It reads exactly the files it replaces
// — every file above the bottom level and the bottom files overlapping them,
// once each — leaves nothing above the bottom level, and what it writes is
// the newest version of each live key: no shadowed version, no tombstone.
func TestCompactRangeRewritesOnce(t *testing.T) {
	db, fs, model := openSettleTree(t)
	defer db.Close()
	for _, lvl := range []int{0, 1, 3, 6} {
		if db.NumFilesAtLevel(lvl) == 0 {
			t.Fatalf("the load left L%d empty:\n%s", lvl, db.DebugString())
		}
	}
	before, m0 := liveFiles(db), db.Metrics()
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	after, m1 := liveFiles(db), db.Metrics()

	var read, written, liveBefore int64
	kept := 0
	for num, f := range before {
		liveBefore += int64(f.Size)
		if _, ok := after[num]; ok {
			kept++
		} else {
			read += int64(f.Size)
		}
	}
	for num, f := range after {
		if _, ok := before[num]; !ok {
			written += int64(f.Size)
		}
	}
	t.Logf("settle: %d live bytes in %d files; read %d, wrote %d, %d jobs", liveBefore, len(before), read, written, m1.Compactions-m0.Compactions)
	if jobs := m1.Compactions - m0.Compactions; jobs != 1 {
		t.Fatalf("CompactRange ran %d jobs, want 1", jobs)
	}
	if got := m1.CompactionRead - m0.CompactionRead; got != read {
		t.Fatalf("CompactRange read %d bytes; the files it replaced hold %d", got, read)
	}
	if got := m1.CompactionWritten - m0.CompactionWritten; got != written {
		t.Fatalf("CompactRange wrote %d bytes; the files it added hold %d", got, written)
	}
	if kept == 0 {
		t.Fatal("every bottom file was rewritten; the load no longer leaves one outside the others' key range")
	}
	for lvl := 0; lvl < manifest.NumLevels-1; lvl++ {
		if n := db.NumFilesAtLevel(lvl); n != 0 {
			t.Fatalf("L%d holds %d files after CompactRange", lvl, n)
		}
	}

	checkAgainstModel(t, db, model)
	db.mu.Lock()
	bottom := derefFiles(db.current.Levels[manifest.NumLevels-1])
	db.mu.Unlock()
	keys, _ := readJobOutputs(t, fs, NopWrapper{}, "db", bottom)
	for _, k := range keys {
		if _, kind := base.DecodeTrailer(k); kind == base.KindDelete {
			t.Fatalf("tombstone %q survived CompactRange", base.UserKey(k))
		}
	}
	if len(keys) != len(model) {
		t.Fatalf("the bottom level holds %d records for %d live keys", len(keys), len(model))
	}
}

// settledFile is one file of the settled tree as the shape golden records
// it: everything but its number, which depends on how many file numbers the
// jobs before it reserved.
type settledFile struct {
	Level    int    `json:"level"`
	Size     uint64 `json:"size"`
	Smallest string `json:"smallest"`
	Largest  string `json:"largest"`
}

func internalKeyString(k []byte) string {
	seq, kind := base.DecodeTrailer(k)
	return fmt.Sprintf("%s#%d,%d", base.UserKey(k), seq, kind)
}

// TestCompactRangeShapeGolden: the settle tree compacts to exactly the tree
// the level-by-level CompactRange of commit c2a9927 built from the same
// load — same levels, sizes and bounds, file for file.
// testdata/compact_range_shape.golden.json was written by that build.
func TestCompactRangeShapeGolden(t *testing.T) {
	db, _, _ := openSettleTree(t)
	defer db.Close()
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	var shape []settledFile
	db.mu.Lock()
	for lvl, files := range db.current.Levels {
		for _, f := range files {
			shape = append(shape, settledFile{lvl, f.Size, internalKeyString(f.Smallest), internalKeyString(f.Largest)})
		}
	}
	db.mu.Unlock()
	got, err := json.MarshalIndent(shape, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "compact_range_shape.golden.json"); !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("settled tree differs from the golden:\nhere:\n%s\ngolden:\n%s", got, want)
	}
}

// TestCompactRangeWaitKeepsDegraded: a DB that degrades while CompactRange
// waits for a conflicting job returns an error that is both ErrDegraded and
// the cause, as every other write-path call does.
func TestCompactRangeWaitKeepsDegraded(t *testing.T) {
	db, err := Open("db", Options{FS: vfs.NewMem(), L0CompactionTrigger: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// An in-flight job holding the L0 file.
	db.mu.Lock()
	held := newLeveledPlan(db.current, &db.opts, 0, db.current.Levels[0], 1)
	db.claimPlanLocked(held)
	db.mu.Unlock()
	defer func() {
		db.mu.Lock()
		db.releasePlanLocked(held)
		db.mu.Unlock()
	}()

	done := make(chan error, 1)
	go func() { done <- db.CompactRange() }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		db.mu.Lock()
		waiting := db.manualWaiters > 0
		db.mu.Unlock()
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("CompactRange never waited for the held job")
		}
	}
	cause := errors.New("injected write-path failure")
	db.mu.Lock()
	db.setBGErrLocked(cause)
	db.mu.Unlock()
	err = <-done
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, cause) {
		t.Fatalf("CompactRange = %v, want ErrDegraded wrapping the cause", err)
	}
}
