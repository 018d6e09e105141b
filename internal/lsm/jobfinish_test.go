package lsm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"shield/internal/vfs"
)

// putRound writes one round of keys and flushes it into an L0 table.
func putRound(t *testing.T, db *DB, round int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%04d", (i*7+round)%300)
		if err := db.Put([]byte(k), []byte(fmt.Sprintf("v%d-%064d", round, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond, under d.mu, until it holds.
func waitFor(t *testing.T, db *DB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		db.mu.Lock()
		ok := cond()
		db.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// failJobInstall arms fs to fail the next MANIFEST sync after skip others.
func failJobInstall(fs *vfs.FaultFS, skip int) {
	fs.Inject(vfs.FaultRule{Op: vfs.FaultSync, Path: "MANIFEST", After: skip, Count: 1})
}

// TestCompactionInstallFailureDegrades: a compaction whose version edit
// fails to install poisons the DB, whether a background worker or
// CompactRange ran it.
func TestCompactionInstallFailureDegrades(t *testing.T) {
	quiet := func(string, ...any) {}
	t.Run("leveled CompactRange", func(t *testing.T) {
		fs := vfs.NewFault(vfs.NewMem(), 1)
		db, err := Open("db", Options{FS: fs, L0CompactionTrigger: 100, Logger: quiet})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		putRound(t, db, 0)
		putRound(t, db, 1)
		failJobInstall(fs, 0)
		if err := db.CompactRange(); !errors.Is(err, ErrDegraded) || !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("CompactRange = %v, want ErrDegraded wrapping the injected fault", err)
		}
		if db.Degraded() == nil {
			t.Fatal("a failed manifest install left the DB writable")
		}
	})
	t.Run("background L0 job", func(t *testing.T) {
		fs := vfs.NewFault(vfs.NewMem(), 1)
		db, err := Open("db", Options{FS: fs, L0CompactionTrigger: 2, Logger: quiet})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		putRound(t, db, 0)
		failJobInstall(fs, 1) // the second flush's own edit installs
		if err := db.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		// The L0 job this flush starts may fail before Flush returns.
		if err := db.Flush(); err != nil && !errors.Is(err, ErrDegraded) {
			t.Fatal(err)
		}
		waitFor(t, db, "the L0 job to fail", func() bool { return db.bgErr != nil })
		if err := db.Degraded(); !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("Degraded() = %v, want the injected fault", err)
		}
	})
}

// unreferencedTables lists the tables in fs's db directory that the store's
// current version does not name, as a read-only open recovers it.
func unreferencedTables(t *testing.T, fs vfs.FS) []string {
	t.Helper()
	db, err := Open("db", Options{FS: fs, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	live := liveFiles(db)
	db.Close()
	entries, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if kind, num, ok := parseFileName(e.Name); ok && kind == FileKindSST {
			if _, ok := live[num]; !ok {
				out = append(out, e.Name)
			}
		}
	}
	return out
}

// TestRecoverySweepsOrphanTables: a table that no version references — left
// by a compaction whose install failed, or by a crash between a compaction's
// output SyncDir and its edit — is gone after a writable reopen, and a
// read-only open leaves it alone.
func TestRecoverySweepsOrphanTables(t *testing.T) {
	check := func(t *testing.T, fs vfs.FS) {
		t.Helper()
		orphans := unreferencedTables(t, fs)
		if len(orphans) == 0 {
			t.Fatal("the setup left no unreferenced table")
		}
		if again := unreferencedTables(t, fs); strings.Join(again, ",") != strings.Join(orphans, ",") {
			t.Fatalf("a read-only open changed the unreferenced tables: %v -> %v", orphans, again)
		}
		db, err := Open("db", Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("k%04d", i))); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if left := unreferencedTables(t, fs); len(left) > 0 {
			t.Fatalf("writable reopen left %v of %v", left, orphans)
		}
	}

	t.Run("failed install", func(t *testing.T) {
		mem := vfs.NewMem()
		fs := vfs.NewFault(mem, 1)
		db, err := Open("db", Options{FS: fs, L0CompactionTrigger: 100, Logger: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		putRound(t, db, 0)
		putRound(t, db, 1)
		failJobInstall(fs, 0)
		if err := db.CompactRange(); err == nil {
			t.Fatal("CompactRange installed through a failing MANIFEST sync")
		}
		db.Close()
		check(t, mem)
	})

	t.Run("crash before the edit", func(t *testing.T) {
		cfs := vfs.NewCrash(1)
		db, err := Open("db", Options{FS: cfs, L0CompactionTrigger: 100})
		if err != nil {
			t.Fatal(err)
		}
		putRound(t, db, 0)
		putRound(t, db, 1)
		// CompactRange's first directory sync makes its outputs durable;
		// the manifest edit naming them comes after.
		var img *vfs.CrashImage
		cfs.AfterSync(func(event string, at *vfs.CrashImage) {
			if img == nil && strings.HasPrefix(event, "syncdir:") {
				img = at
			}
		})
		if err := db.CompactRange(); err != nil {
			t.Fatal(err)
		}
		cfs.AfterSync(nil)
		db.Close()
		if img == nil {
			t.Fatal("CompactRange synced no directory")
		}
		check(t, img.Strict())
	})
}
