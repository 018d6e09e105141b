package lsm

import (
	"fmt"
	"testing"

	"shield/internal/vfs"
)

// TestUniversalCompactionConverges is a regression test for a livelock:
// universal compaction must merge runs into a single output file, otherwise
// the run count never drops below the trigger and workers reschedule
// forever.
func TestUniversalCompactionConverges(t *testing.T) {
	fs := vfs.NewMem()
	opts := Options{
		FS:                  fs,
		MemtableSize:        32 << 10,
		BaseLevelSize:       128 << 10,
		TargetFileSize:      32 << 10,
		L0CompactionTrigger: 4,
		CompactionStyle:     CompactionUniversal,
	}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 60000; i++ {
		k := fmt.Sprintf("key-%05d", i%2000)
		if err := db.Put([]byte(k), make([]byte, 80)); err != nil {
			t.Fatal(err)
		}
		if i%10000 == 0 {
			t.Logf("step %d files=%d", i, filesAtLevel(db, 0))
		}
	}
	t.Log("fill done")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	t.Log("flush done")
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	t.Log("compact done")
}
