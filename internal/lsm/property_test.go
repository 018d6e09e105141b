package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"shield/internal/vfs"
)

// TestModelEquivalence drives the DB with a random operation stream and
// checks every observable against an in-memory map model, across flushes,
// compactions, and reopen. This is the engine's main correctness property.
// Leveled is the engine's one compaction style; the subtest is named for it.
func TestModelEquivalence(t *testing.T) {
	t.Run("leveled", checkModelEquivalence)
}

func checkModelEquivalence(t *testing.T) {
	fs := vfs.NewMem()
	opts := Options{
		FS:                  fs,
		MemtableSize:        32 << 10,
		BaseLevelSize:       128 << 10,
		TargetFileSize:      32 << 10,
		L0CompactionTrigger: 3,
	}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	model := make(map[string]string)
	rng := rand.New(rand.NewSource(99))
	keySpace := 2000

	checkKey := func(k string) {
		got, err := db.Get([]byte(k))
		want, exists := model[k]
		switch {
		case exists && err != nil:
			t.Fatalf("Get(%s): %v (model has %q)", k, err, want)
		case exists && string(got) != want:
			t.Fatalf("Get(%s) = %q, model has %q", k, got, want)
		case !exists && !errors.Is(err, ErrNotFound):
			t.Fatalf("Get(%s) = %q,%v; model has nothing", k, got, err)
		}
	}

	steps := 20_000
	if testing.Short() {
		steps = 4_000
	}
	for step := 0; step < steps; step++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(keySpace))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // put
			v := fmt.Sprintf("v-%d-%d", step, rng.Int63())
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 6, 7: // delete
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case 8: // read
			checkKey(k)
		case 9: // occasional maintenance
			switch rng.Intn(200) {
			case 0:
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := db.CompactRange(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Full verification via iterator: exact key set, exact values.
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for ok := it.First(); ok; ok = it.Next() {
		k, v := string(it.Key()), string(it.Value())
		want, exists := model[k]
		if !exists {
			t.Fatalf("iterator yielded deleted/unknown key %q", k)
		}
		if v != want {
			t.Fatalf("iterator value for %q: %q want %q", k, v, want)
		}
		seen++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(model) {
		t.Fatalf("iterator saw %d keys, model has %d", seen, len(model))
	}
	it.Close()

	// Reopen and verify a sample again (recovery correctness).
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checked := 0
	for k, want := range model {
		got, err := db2.Get([]byte(k))
		if err != nil {
			t.Fatalf("after reopen Get(%s): %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("after reopen Get(%s) = %q want %q", k, got, want)
		}
		if checked++; checked >= 300 {
			break
		}
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(keySpace))
		if _, exists := model[k]; !exists {
			if _, err := db2.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("after reopen deleted key %q resurfaced: %v", k, err)
			}
		}
	}
}

// TestSnapshotIsolation: a snapshot must keep seeing the old value while
// newer writes land, even across flush and compaction.
func TestSnapshotIsolation(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	snap := db.NewSnapshot()
	defer snap.Release()

	if err := db.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("other")); err != nil {
		t.Fatal(err)
	}
	// Push everything through flush + compaction; the snapshot pins v1.
	for i := 0; i < 5000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("fill-%05d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}

	v, err := snap.Get([]byte("k"))
	if err != nil {
		t.Fatalf("snapshot read: %v", err)
	}
	if string(v) != "v1" {
		t.Fatalf("snapshot saw %q, want v1", v)
	}
	cur, err := db.Get([]byte("k"))
	if err != nil || string(cur) != "v2" {
		t.Fatalf("current read %q %v", cur, err)
	}
}

// TestIteratorUnaffectedByConcurrentWrites: an open iterator's view stays
// frozen at its creation sequence.
func TestIteratorSnapshotSemantics(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("old"))
	}
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// Mutate after iterator creation.
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("new"))
	}
	db.Put([]byte("zzz-extra"), []byte("x"))

	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		if string(it.Value()) != "old" {
			t.Fatalf("iterator leaked post-snapshot write: %q=%q", it.Key(), it.Value())
		}
		count++
	}
	if count != 100 {
		t.Fatalf("iterator saw %d keys, want 100", count)
	}
}
