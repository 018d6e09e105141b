package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"shield/internal/vfs"
)

func testOptions(fs vfs.FS) Options {
	return Options{
		FS:                  fs,
		MemtableSize:        64 << 10, // small to force flushes
		BaseLevelSize:       256 << 10,
		TargetFileSize:      64 << 10,
		L0CompactionTrigger: 4,
	}
}

func TestPutGet(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "world" {
		t.Fatalf("got %q, want %q", v, "world")
	}
	if _, err := db.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	key := []byte("k")
	for i := 0; i < 10; i++ {
		if err := db.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := db.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v9" {
		t.Fatalf("got %q, want v9", v)
	}
	if err := db.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after delete, got %v", err)
	}
}

func TestManyKeysThroughFlushAndCompaction(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 20000
	rng := rand.New(rand.NewSource(1))
	keys := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%08d", rng.Intn(n))
		v := fmt.Sprintf("val-%d-%d", i, rng.Int63())
		keys[k] = v
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Validate a sample while background work is ongoing.
	checked := 0
	for k, want := range keys {
		v, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
		checked++
		if checked > 2000 {
			break
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Flushes == 0 {
		t.Fatal("expected at least one flush")
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 100; i++ {
		v, err := db2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil {
			t.Fatalf("after recovery Get(k%03d): %v", i, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered wrong value %q for k%03d", v, i)
		}
	}
}

func TestRecoveryAfterCrashUnsynced(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	opts.SyncWrites = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a system crash without closing: unsynced bytes vanish.
	fs.CrashUnsynced()

	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 50; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("synced write k%03d lost: %v", i, err)
		}
	}
}

func TestIterator(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 5000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every third key.
	for i := 0; i < n; i += 3 {
		if err := db.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}

	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	count := 0
	prev := ""
	for ok := it.First(); ok; ok = it.Next() {
		k := string(it.Key())
		if prev != "" && k <= prev {
			t.Fatalf("iterator out of order: %q after %q", k, prev)
		}
		prev = k
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	want := n - (n+2)/3
	if count != want {
		t.Fatalf("iterated %d keys, want %d", count, want)
	}

	// SeekGE lands on the right key.
	if !it.SeekGE([]byte("k02500")) {
		t.Fatal("SeekGE failed")
	}
	if k := string(it.Key()); k != "k02500" && k != "k02501" {
		t.Fatalf("SeekGE(k02500) landed on %q", k)
	}
}

func TestConcurrentWriters(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-k%04d", w, i)
				if err := db.Put([]byte(k), []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 37 {
			k := fmt.Sprintf("w%d-k%04d", w, i)
			if _, err := db.Get([]byte(k)); err != nil {
				t.Fatalf("Get(%s): %v", k, err)
			}
		}
	}
}

func TestBatchAtomicity(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	b := NewBatch()
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("b%03d", i)), []byte("x"))
	}
	if b.Count() != 100 {
		t.Fatalf("batch count %d", b.Count())
	}
	if err := db.Write(b, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("b%03d", i))); err != nil {
			t.Fatalf("batch record %d missing: %v", i, err)
		}
	}
}

func TestCompactRangeDropsTombstones(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if err := db.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.First() {
		t.Fatalf("expected empty db after deleting everything, found %q", it.Key())
	}
}

// TestCompactionStyles: two and a half overwrite rounds of 4 000 keys
// through small memtables, so background compaction runs, and the newest
// round's last key reads back. Leveled is the engine's one compaction style;
// the subtest is named for it.
func TestCompactionStyles(t *testing.T) {
	t.Run("leveled", overwriteRoundsCompact)
}

func overwriteRoundsCompact(t *testing.T) {
	db, err := Open("db", testOptions(vfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("k%06d", i%4000)
		if err := db.Put([]byte(k), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k003999"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 64 {
		t.Fatalf("bad value length %d", len(v))
	}
}

// TestGetDuringRotateAndFlush: Gets run while a writer fills small
// memtables, so rotations append to d.imm and flushes reslice it under the
// slice headers the readers took. Every Get of a key written before it
// started sees that key's value. Run under -race: a reader's view of d.imm
// must not race a rotation or a flush.
func TestGetDuringRotateAndFlush(t *testing.T) {
	opts := testOptions(vfs.NewMem())
	opts.MemtableSize = 16 << 10
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := func(i int64) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	value := func(i int64) []byte { return []byte(fmt.Sprintf("value-%06d-%0100d", i, i)) }
	const n = 3000
	var written atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := int64(0); g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := written.Load()
				if w == 0 {
					runtime.Gosched()
					continue
				}
				i := rng.Int63n(w)
				if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, value(i)) {
					t.Errorf("Get(%s) = %q, %v", key(i), got, err)
					return
				}
			}
		}()
	}
	for i := int64(0); i < n; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
		written.Store(i + 1)
	}
	close(stop)
	wg.Wait()
	if flushes := db.metFlushes.Load(); flushes < 10 {
		t.Fatalf("%d flushes, want the writes to rotate memtables many times", flushes)
	}
}
