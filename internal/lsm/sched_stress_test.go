package lsm

import (
	"fmt"
	"math/rand"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shield/internal/vfs"
)

// createRecordingFS records every SST file number passed to Create, so the
// test can assert the scheduler never reuses a file number — the PR 4 race
// class where two jobs allocating from a shared counter collided.
type createRecordingFS struct {
	vfs.FS
	mu      sync.Mutex
	sstSeen map[uint64]int
}

func (fs *createRecordingFS) Create(name string) (vfs.WritableFile, error) {
	if kind, num, ok := parseFileName(path.Base(name)); ok && kind == FileKindSST {
		fs.mu.Lock()
		fs.sstSeen[num]++
		fs.mu.Unlock()
	}
	return fs.FS.Create(name)
}

func (fs *createRecordingFS) reusedNums() []uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var reused []uint64
	for num, n := range fs.sstSeen {
		if n > 1 {
			reused = append(reused, num)
		}
	}
	return reused
}

// TestSchedulerRaceStress drives concurrent writers, manual CompactRange
// callers, and explicit flushes against the parallel job scheduler. Run
// under -race (CI does). It asserts:
//
//   - no operation errors and the DB never enters degraded mode — in
//     particular no "deleting unknown file" manifest error, the symptom of
//     two jobs compacting the same input;
//   - SST file numbers are never reused across the run;
//   - every key written is readable afterwards.
func TestSchedulerRaceStress(t *testing.T) {
	rec := &createRecordingFS{FS: vfs.NewMem(), sstSeen: make(map[uint64]int)}
	opts := testOptions(rec)
	opts.MemtableSize = 16 << 10
	opts.BaseLevelSize = 32 << 10
	opts.TargetFileSize = 16 << 10
	opts.L0CompactionTrigger = 2
	opts.MaxBackgroundJobs = 4
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	duration := 1500 * time.Millisecond
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const keySpace = 800

	// Writers: the value encodes the key so readers can validate.
	var lastWritten [keySpace]atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keySpace)
				gen := int64(w)<<32 | int64(i)
				key := []byte(fmt.Sprintf("key-%06d", k))
				val := []byte(fmt.Sprintf("key-%06d-gen-%d-%s", k, gen, strings.Repeat("v", 64)))
				if err := db.Put(key, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				lastWritten[k].Store(gen)
			}
		}(w)
	}

	// Two manual compactors racing each other and the background jobs.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.CompactRange(); err != nil {
					t.Errorf("compact range: %v", err)
					return
				}
			}
		}()
	}

	// A flusher adding memtable-rotation pressure.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	if err := db.Degraded(); err != nil {
		t.Fatalf("DB degraded after stress (manifest race?): %v", err)
	}
	if reused := rec.reusedNums(); len(reused) > 0 {
		t.Fatalf("SST file numbers reused across jobs: %v", reused)
	}

	// Every key's final value must still read back consistently.
	for k := 0; k < keySpace; k++ {
		if lastWritten[k].Load() == 0 {
			continue
		}
		key := []byte(fmt.Sprintf("key-%06d", k))
		val, err := db.Get(key)
		if err != nil {
			t.Fatalf("get %q: %v", key, err)
		}
		if !strings.HasPrefix(string(val), string(key)+"-gen-") {
			t.Fatalf("get %q returned foreign value %q", key, val)
		}
	}

	// The run must actually have exercised concurrency: with 3 compaction
	// slots, 2 manual compactors, and this much churn, at least one
	// multi-job overlap should have happened.
	m := db.Metrics()
	t.Logf("compactions=%d queued=%d stall=%v", m.Compactions, m.CompactionsQueued, m.StallTime)
	if m.Compactions == 0 {
		t.Fatal("stress run finished without a single compaction")
	}
}
