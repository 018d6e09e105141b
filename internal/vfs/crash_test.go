package vfs

import (
	"bytes"
	"errors"
	"testing"
)

// mustRead reads name or fails the test.
func mustRead(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	data, err := ReadFile(fs, name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

// A fsynced file whose directory entry was never synced vanishes entirely
// from the crash image — fsync(file) persists contents, not the name.
func TestCrashFSDropsUnsyncedDirEntry(t *testing.T) {
	fs := NewCrash(1)
	fs.MkdirAll("d")
	f, _ := fs.Create("d/a")
	f.Write([]byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	post := fs.Snapshot().Strict()
	if _, err := ReadFile(post, "d/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("entry should be lost without SyncDir, got err=%v", err)
	}

	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	post = fs.Snapshot().Strict()
	if got := mustRead(t, post, "d/a"); string(got) != "hello" {
		t.Fatalf("after SyncDir got %q", got)
	}
}

// Close does not imply Sync: contents written but never synced are volatile
// even when the directory entry is durable.
func TestCrashFSCloseDoesNotSync(t *testing.T) {
	fs := NewCrash(1)
	fs.MkdirAll("d")
	f, _ := fs.Create("d/a")
	f.Write([]byte("unsynced"))
	f.Close()
	fs.SyncDir("d")

	post := fs.Snapshot().Strict()
	if got := mustRead(t, post, "d/a"); len(got) != 0 {
		t.Fatalf("unsynced bytes survived strict crash: %q", got)
	}
}

// A rename without a following SyncDir rolls back on crash: the destination
// keeps its prior content and the source entry is restored (or, for a
// never-dir-synced tmp file, was never durable at all).
func TestCrashFSRenameRollsBackWithoutSyncDir(t *testing.T) {
	fs := NewCrash(1)
	fs.MkdirAll("d")
	WriteFile(fs, "d/cur", []byte("old"))
	fs.SyncDir("d")

	WriteFile(fs, "d/cur.tmp", []byte("new"))
	if err := fs.Rename("d/cur.tmp", "d/cur"); err != nil {
		t.Fatal(err)
	}

	post := fs.Snapshot().Strict()
	if got := mustRead(t, post, "d/cur"); string(got) != "old" {
		t.Fatalf("rename leaked through crash: %q", got)
	}
	if _, err := ReadFile(post, "d/cur.tmp"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tmp entry should not be durable, got err=%v", err)
	}

	fs.SyncDir("d")
	post = fs.Snapshot().Strict()
	if got := mustRead(t, post, "d/cur"); string(got) != "new" {
		t.Fatalf("after SyncDir got %q", got)
	}
	if _, err := ReadFile(post, "d/cur.tmp"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tmp should be durably gone, got err=%v", err)
	}
}

// A remove without SyncDir can resurrect the file after a crash.
func TestCrashFSRemoveResurrection(t *testing.T) {
	fs := NewCrash(1)
	fs.MkdirAll("d")
	WriteFile(fs, "d/a", []byte("zombie"))
	fs.SyncDir("d")
	if err := fs.Remove("d/a"); err != nil {
		t.Fatal(err)
	}

	post := fs.Snapshot().Strict()
	if got := mustRead(t, post, "d/a"); string(got) != "zombie" {
		t.Fatalf("removed file should resurrect, got %q", got)
	}

	fs.SyncDir("d")
	post = fs.Snapshot().Strict()
	if _, err := ReadFile(post, "d/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after SyncDir remove should be durable, got err=%v", err)
	}
}

// Torn images keep the synced prefix intact and at most the volatile tail;
// the namespace stays strict. ZeroFilled images keep the file's whole size.
func TestCrashFSTornTail(t *testing.T) {
	fs := NewCrash(7)
	fs.MkdirAll("d")
	f, _ := fs.Create("d/a")
	f.Write([]byte("durable-"))
	f.Sync()
	f.Write([]byte("volatile"))
	f.Close()
	fs.SyncDir("d")

	img := fs.Snapshot()
	strict := mustRead(t, img.Strict(), "d/a")
	if string(strict) != "durable-" {
		t.Fatalf("strict image: %q", strict)
	}
	sawPartial := false
	for seed := int64(1); seed <= 32; seed++ {
		got := mustRead(t, img.Torn(seed), "d/a")
		if !bytes.HasPrefix(got, []byte("durable-")) {
			t.Fatalf("torn image lost synced prefix: %q", got)
		}
		if len(got) > len("durable-volatile") {
			t.Fatalf("torn image grew: %q", got)
		}
		if len(got) > len("durable-") && len(got) < len("durable-volatile") {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no seed produced a partially-kept tail")
	}
	// A zero-filled image keeps Torn's prefix and zeros in place of the
	// rest of the tail.
	for seed := int64(1); seed <= 32; seed++ {
		torn := mustRead(t, img.Torn(seed), "d/a")
		got := mustRead(t, img.ZeroFilled(seed), "d/a")
		want := append(torn, make([]byte, len("durable-volatile")-len(torn))...)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: zero-filled image %q, want %q", seed, got, want)
		}
	}
	// Same seed → same image.
	a := mustRead(t, img.Torn(3), "d/a")
	b := mustRead(t, img.Torn(3), "d/a")
	if !bytes.Equal(a, b) {
		t.Fatalf("Torn not deterministic: %q vs %q", a, b)
	}
}

// AfterSync fires at every boundary and the live FS keeps working while
// images accumulate.
func TestCrashFSAfterSyncEnumeration(t *testing.T) {
	fs := NewCrash(1)
	fs.MkdirAll("d")
	var events []string
	var images []*CrashImage
	fs.AfterSync(func(event string, img *CrashImage) {
		events = append(events, event)
		images = append(images, img)
	})

	f, _ := fs.Create("d/a")
	f.Write([]byte("x"))
	f.Sync()
	f.Sync()
	f.Close()
	fs.SyncDir("d")

	if fs.SyncPoints() != 3 {
		t.Fatalf("sync points = %d", fs.SyncPoints())
	}
	if len(events) != 3 || events[0] != "sync:d/a" || events[2] != "syncdir:d" {
		t.Fatalf("events = %v", events)
	}
	// The first two images predate the SyncDir: entry not durable yet.
	if got := images[0].Files(); len(got) != 0 {
		t.Fatalf("image 0 files = %v", got)
	}
	if got := images[2].Files(); len(got) != 1 || got[0] != "d/a" {
		t.Fatalf("image 2 files = %v", got)
	}
}

// Re-creating an existing durable file leaves the old inode reachable from
// the durable namespace until the next boundary: a crash mid-rewrite rolls
// back to the old contents.
func TestCrashFSCreateOverDurable(t *testing.T) {
	fs := NewCrash(1)
	fs.MkdirAll("d")
	WriteFile(fs, "d/a", []byte("v1"))
	fs.SyncDir("d")

	f, _ := fs.Create("d/a") // truncates live view
	f.Write([]byte("v2-partial"))
	f.Close() // no sync

	post := fs.Snapshot().Strict()
	if got := mustRead(t, post, "d/a"); string(got) != "v1" {
		t.Fatalf("crash mid-rewrite should keep old inode, got %q", got)
	}
}
