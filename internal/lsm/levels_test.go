package lsm

import (
	"errors"
	"fmt"
	"testing"

	"shield/internal/vfs"
)

// TestReadsAcrossLevels builds a tree with data spread over memtable, L0,
// and deeper levels, then validates point reads and seeks that must
// traverse all of them with correct version precedence.
func TestReadsAcrossLevels(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Generation 1: everything, pushed to the deepest populated level.
	for i := 0; i < 6000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("gen1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	if filesAtLevel(db, 0) != 0 {
		t.Fatalf("L0 not empty after full compaction: %d", filesAtLevel(db, 0))
	}
	deepFiles := 0
	for lvl := 1; lvl < 7; lvl++ {
		deepFiles += filesAtLevel(db, lvl)
	}
	if deepFiles == 0 {
		t.Fatal("no files below L0 after CompactRange")
	}

	// Generation 2: overwrite a slice, flush to L0 only.
	for i := 2000; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("gen2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Generation 3: overwrite a smaller slice, keep it in the memtable.
	for i := 2500; i < 2600; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("gen3")); err != nil {
			t.Fatal(err)
		}
	}

	expect := func(i int) string {
		switch {
		case i >= 2500 && i < 2600:
			return "gen3"
		case i >= 2000 && i < 3000:
			return "gen2"
		default:
			return "gen1"
		}
	}
	for _, i := range []int{0, 1999, 2000, 2499, 2500, 2599, 2600, 2999, 3000, 5999} {
		v, err := db.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil {
			t.Fatalf("Get(k%05d): %v", i, err)
		}
		if string(v) != expect(i) {
			t.Fatalf("Get(k%05d) = %q, want %q", i, v, expect(i))
		}
	}
	if _, err := db.Get([]byte("k99999")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}

	// A scan across the generation boundaries sees the same precedence.
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.SeekGE([]byte("k02498")) {
		t.Fatal("seek failed")
	}
	i := 2498
	for ; it.Valid() && i < 3002; i++ {
		wantK := fmt.Sprintf("k%05d", i)
		if string(it.Key()) != wantK {
			t.Fatalf("scan position: %q want %q", it.Key(), wantK)
		}
		if string(it.Value()) != expect(i) {
			t.Fatalf("scan value at %s: %q want %q", wantK, it.Value(), expect(i))
		}
		it.Next()
	}
	if i != 3002 {
		t.Fatalf("scan ended early at %d", i)
	}
}

// filesAtLevel reports the file count at a level of the current version.
func filesAtLevel(d *DB, level int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.current.Levels[level])
}
