package lsm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"shield/internal/vfs"
)

// TestIteratorSnapshotConsistencyUnderParallelJobs is the snapshot
// property test for the parallel scheduler: an iterator opened at sequence
// S must observe exactly the database state at S — every key exactly once,
// in order, with the value written in round r — while concurrent writers
// overwrite every key and parallel jobs rewrite the levels underneath it. A
// half-installed version edit or a job dropping records visible at S would
// surface here as a missing, duplicated, or future-valued key.
func TestIteratorSnapshotConsistencyUnderParallelJobs(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	opts.MemtableSize = 16 << 10
	opts.BaseLevelSize = 32 << 10
	opts.TargetFileSize = 8 << 10
	opts.L0CompactionTrigger = 2
	opts.MaxBackgroundJobs = 4
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const numKeys = 400
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	key := func(k int) []byte { return []byte(fmt.Sprintf("key-%05d", k)) }
	val := func(k, round int) []byte {
		return []byte(fmt.Sprintf("key-%05d-round-%04d-padpadpadpadpadpadpadpad", k, round))
	}

	writeRound := func(round int) {
		for k := 0; k < numKeys; k++ {
			if err := db.Put(key(k), val(k, round)); err != nil {
				t.Fatalf("round %d put: %v", round, err)
			}
			// Delete-and-rewrite a stripe of keys each round so compactions
			// have tombstones to drop underneath the open iterator.
			if k%7 == round%7 {
				if err := db.Delete(key(k)); err != nil {
					t.Fatalf("round %d delete: %v", round, err)
				}
				if err := db.Put(key(k), val(k, round)); err != nil {
					t.Fatalf("round %d re-put: %v", round, err)
				}
			}
		}
	}

	writeRound(0)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= rounds; round++ {
		// The iterator pins the view as of the end of round-1.
		it, err := db.NewIter()
		if err != nil {
			t.Fatal(err)
		}

		// Meanwhile: overwrite everything with round's values and force
		// compaction churn (flushes + manual range compaction) so the
		// files backing the iterator are rewritten and zombied under it.
		var wg sync.WaitGroup
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			writeRound(round)
			if err := db.Flush(); err != nil {
				t.Errorf("round %d flush: %v", round, err)
				return
			}
			if err := db.CompactRange(); err != nil {
				t.Errorf("round %d compact: %v", round, err)
			}
		}(round)

		// Slow forward scan: yield regularly so the rewrite makes progress
		// mid-iteration.
		want := 0
		for ok := it.First(); ok; ok = it.Next() {
			if string(it.Key()) != string(key(want)) {
				t.Fatalf("round %d: iterator position %d saw key %q, want %q",
					round, want, it.Key(), key(want))
			}
			if string(it.Value()) != string(val(want, round-1)) {
				t.Fatalf("round %d: key %q saw value %q, want round-%d value",
					round, it.Key(), it.Value(), round-1)
			}
			want++
			if want%20 == 0 {
				runtime.Gosched()
			}
		}
		if err := it.Err(); err != nil {
			t.Fatalf("round %d iterator error: %v", round, err)
		}
		if want != numKeys {
			t.Fatalf("round %d: iterator yielded %d keys, want %d", round, want, numKeys)
		}

		wg.Wait()
		if err := it.Close(); err != nil {
			t.Fatalf("round %d iterator close: %v", round, err)
		}
	}

	m := db.Metrics()
	t.Logf("compactions=%d", m.Compactions)
	if m.Compactions == 0 {
		t.Fatal("test never compacted; property not exercised")
	}
}
