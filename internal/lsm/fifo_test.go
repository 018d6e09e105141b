package lsm

import (
	"fmt"
	"testing"

	"shield/internal/vfs"
)

// TestFIFONoWriteStall is a regression test: FIFO compaction never merges
// L0, so the L0 stop-writes trigger must not apply — otherwise ingestion
// wedges permanently once file count exceeds the trigger while total size
// is still under the FIFO cap.
func TestFIFONoWriteStall(t *testing.T) {
	fs := vfs.NewMem()
	opts := Options{
		FS:               fs,
		MemtableSize:     8 << 10, // many small L0 files: far past l0StopWritesTrigger
		CompactionStyle:  CompactionFIFO,
		FIFOMaxTableSize: 64 << 20, // cap far beyond the data written
	}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 20_000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if files := filesAtLevel(db, 0); files <= l0StopWritesTrigger {
		t.Fatalf("expected more than %d L0 files under FIFO, got %d", l0StopWritesTrigger, files)
	}
	if _, err := db.Get([]byte("k019999")); err != nil {
		t.Fatal(err)
	}
}
