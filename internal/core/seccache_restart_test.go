package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/lsm/base"
	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// TestSecCacheRestartLoop restarts a SHIELD instance twenty times against a
// persistent secure cache, with injected write faults on the cache's storage.
// Warm restarts must be served from the sealed snapshot — no KDS round-trip
// storm: the KDS fetch count may grow only by the DEKs lost to the injected
// save failures, never in proportion to restarts × files. A structurally
// corrupted cache must cold-start with Recovered() = true and refill from the
// KDS (the creator re-fetch path), not fail the open.
func TestSecCacheRestartLoop(t *testing.T) {
	store := kds.NewStore(kds.DefaultPolicy())
	store.Authorize("server-1")
	srv, err := kds.NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dataFS := vfs.NewMem()
	// The cache disk misbehaves: two snapshot writes fail mid-run. The cache
	// must absorb them (stale-but-valid snapshot on disk, serving continues
	// from memory).
	cacheBase := vfs.NewMem()
	cacheFS := vfs.NewFault(cacheBase, 1)
	cacheFS.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: "seccache", After: 6, Count: 2})

	const rounds = 20
	var fetchedAfterCold int64
	for round := 0; round < rounds; round++ {
		cache := openTestCache(t, cacheFS)
		if cache.Recovered() {
			t.Fatalf("round %d: cache claims recovery from corruption; none was injected", round)
		}
		client := kds.NewClientConfig("server-1", fastKDSClientConfig(), srv.Addr())
		cfg := Config{Mode: ModeSHIELD, FS: dataFS, KDS: client, Cache: cache, WALBufferSize: 512}
		db, err := Open("db", cfg, smallOpts())
		if err != nil {
			t.Fatalf("round %d: open: %v", round, err)
		}
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("r%02d-k%03d", round, i)
			if err := db.Put([]byte(key), []byte("v-"+key)); err != nil {
				t.Fatalf("round %d: put: %v", round, err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("round %d: flush: %v", round, err)
		}
		// Every earlier round's data must still read back through DEKs that
		// came from the cache, not fresh KDS fetches.
		for r := 0; r <= round; r++ {
			key := fmt.Sprintf("r%02d-k%03d", r, 7)
			if v, err := db.Get([]byte(key)); err != nil || string(v) != "v-"+key {
				t.Fatalf("round %d: read of round-%d key: %q %v", round, r, v, err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		client.Close()

		if round == 0 {
			_, fetchedAfterCold, _ = store.Stats()
		}
	}

	// Bounded fetches: each of the two injected save failures can lose the
	// DEKs added between the previous good snapshot and the next one (a
	// handful per round), which the next restart re-fetches. Twenty warm
	// restarts over a growing file set would otherwise be hundreds of
	// fetches.
	_, fetchedAfterWarm, _ := store.Stats()
	if growth := fetchedAfterWarm - fetchedAfterCold; growth > 8 {
		t.Fatalf("KDS fetch storm across warm restarts: %d extra fetches", growth)
	}

	if cacheFS.Injected() != 2 {
		t.Fatalf("expected both cache-save faults to fire, got %d", cacheFS.Injected())
	}

	// The failed saves must not have left a corrupt cache behind: the next
	// open loads the last good snapshot without claiming recovery.
	cache := openTestCache(t, cacheFS)
	if cache.Recovered() {
		t.Fatal("cache claims recovery; none was injected yet")
	}

	// Structural corruption: truncate the cache file. The next open must
	// cold-start, flag Recovered, and the instance must refill from the KDS.
	if err := vfs.WriteFile(cacheBase, "seccache", []byte("xx")); err != nil {
		t.Fatal(err)
	}
	cache = openTestCache(t, cacheFS)
	if !cache.Recovered() {
		t.Fatal("Recovered() = false after structural cache corruption")
	}
	client := kds.NewClientConfig("server-1", fastKDSClientConfig(), srv.Addr())
	defer client.Close()
	cfg := Config{Mode: ModeSHIELD, FS: dataFS, KDS: client, Cache: cache, WALBufferSize: 512}
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatalf("open after cache corruption: %v", err)
	}
	defer db.Close()
	key := "r00-k007"
	if v, err := db.Get([]byte(key)); err != nil || string(v) != "v-"+key {
		t.Fatalf("read after cold cache: %q %v", v, err)
	}
	if _, fetchedCold, _ := store.Stats(); fetchedCold == fetchedAfterWarm {
		t.Fatal("cold-started cache served reads without any KDS fetch — cache was not actually cold")
	}
}

// TestReopenReleasesRecoveredDEKs: a reopen replays the previous run's WAL
// and replaces its MANIFEST, then deletes both. Their DEKs leave the secure
// cache with them, so after every reopen the cache holds exactly the DEKs of
// the live WAL, MANIFEST and SST files, however many times the store has been
// reopened.
func TestReopenReleasesRecoveredDEKs(t *testing.T) {
	fs := vfs.NewMem()
	cfg := testConfig(t, ModeSHIELD, fs)
	cacheFS := vfs.NewMem()
	for round := 0; round < 10; round++ {
		cfg.Cache = openTestCache(t, cacheFS)
		db, err := Open("db", cfg, compactRangeOnlyOpts())
		if err != nil {
			t.Fatalf("round %d: open: %v", round, err)
		}
		live := liveDEKIDs(t, fs)
		if got := cfg.Cache.Len(); got != len(live) {
			t.Fatalf("round %d: the secure cache holds %d DEKs after reopen, the live files %d", round, got, len(live))
		}
		for id := range live {
			if _, err := cfg.Cache.Get(id); err != nil {
				t.Fatalf("round %d: live DEK %s is not cached: %v", round, id, err)
			}
		}
		if err := db.Put([]byte(fmt.Sprintf("k%02d", round)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactRange(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// liveDEKIDs collects the DEK-IDs named in the headers of the WAL, MANIFEST
// and SST files in db.
func liveDEKIDs(t *testing.T, fs vfs.FS) map[kds.KeyID]bool {
	t.Helper()
	entries, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[kds.KeyID]bool)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name, ".sst") && !strings.HasSuffix(e.Name, ".log") && !strings.HasPrefix(e.Name, "MANIFEST-") {
			continue
		}
		data, err := vfs.ReadFile(fs, "db/"+e.Name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := parseHeader(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		out[h.dekID] = true
	}
	return out
}

// TestOrphanSweepReleasesDEK: a table a previous process created but never
// named in a manifest edit (it crashed in between) is removed by the next
// writable open, and its DEK leaves the secure cache with it.
func TestOrphanSweepReleasesDEK(t *testing.T) {
	fs := vfs.NewMem()
	cfg := testConfig(t, ModeSHIELD, fs)
	cacheFS := vfs.NewMem()
	cfg.Cache = openTestCache(t, cacheFS)
	db, err := Open("db", cfg, compactRangeOnlyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	w, err := cfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	orphan := "db/000999.sst"
	raw, err := fs.Create(orphan)
	if err != nil {
		t.Fatal(err)
	}
	f, id, err := w.WrapCreate(orphan, lsm.FileKindSST, raw)
	if err != nil {
		t.Fatal(err)
	}
	tw := sstable.NewWriter(f, sstable.WriterOptions{})
	if err := tw.Add(base.MakeInternalKey([]byte("orphan"), 1, base.KindSet), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tw.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Cache.Get(kds.KeyID(id)); err != nil {
		t.Fatalf("the orphan's DEK is not cached before the sweep: %v", err)
	}

	cfg.Cache = openTestCache(t, cacheFS) // the next process
	db, err = Open("db", cfg, compactRangeOnlyOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := fs.Stat(orphan); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("the orphan survived the open: %v", err)
	}
	if _, err := cfg.Cache.Get(kds.KeyID(id)); err == nil {
		t.Fatalf("the swept orphan's DEK %s is still in the secure cache", id)
	}
}
