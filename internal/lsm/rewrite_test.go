package lsm

import (
	"fmt"
	"math/rand"
	"testing"

	"shield/internal/vfs"
)

// drainBackground waits until no flush or compaction runs and the picker
// finds nothing more to start.
func drainBackground(db *DB) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for db.flushing || len(db.imm) > 0 || db.compactions > 0 || pickLeveled(db.current, &db.opts, db.held) != nil {
		db.bgCond.Wait()
	}
}

// TestRewriteWorkPerUserByte counts the compaction work a seeded
// uniform-overwrite stream costs, with no clock in the count: one writer on
// memfs overwrites 40 000 keys chosen uniformly from seed 7, flushes every
// 2 000 Puts, and after each flush waits until background compaction has
// nothing left to do. Every job therefore starts from the same Version in
// every run, and the bytes compaction writes repeat exactly. The tree ends
// about 4.5 MB live, so with BaseLevelSize 256 KiB its base level moves
// above the bottom level part-way through. The pinned numbers move with the picker, the defaults it reads
// (L0CompactionTrigger is left at its default) and the table format; re-pin
// them on purpose, with the ratio the log prints.
func TestRewriteWorkPerUserByte(t *testing.T) {
	const (
		keys       = 40_000
		flushEvery = 2_000
		flushes    = 60
	)
	db, err := Open("db", Options{
		FS:             vfs.NewMem(),
		MemtableSize:   64 << 20, // only the explicit Flush rotates
		BaseLevelSize:  256 << 10,
		TargetFileSize: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(7))
	value := make([]byte, 100)
	var user int64
	for i := 0; i < flushes*flushEvery; i++ {
		key := fmt.Sprintf("key%08d", rng.Intn(keys))
		rng.Read(value)
		if err := db.Put([]byte(key), value); err != nil {
			t.Fatal(err)
		}
		user += int64(len(key) + len(value))
		if (i+1)%flushEvery == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			drainBackground(db)
		}
	}
	m := db.Metrics()
	t.Logf("%d user bytes; compaction wrote %d (%.3f per user byte) and read %d in %d jobs",
		user, m.CompactionWritten, float64(m.CompactionWritten)/float64(user), m.CompactionRead, m.Compactions)
	const wantWritten, wantJobs = 33253209, 86
	if m.CompactionWritten != wantWritten || m.Compactions != wantJobs {
		t.Fatalf("compaction wrote %d bytes in %d jobs, pinned %d in %d", m.CompactionWritten, m.Compactions, wantWritten, wantJobs)
	}
}
