package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

// countFormats classifies every SST in dir by its header version.
func countFormats(t *testing.T, fs vfs.FS, dir string) (v1, v2 int) {
	t.Helper()
	entries, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name, ".sst") {
			continue
		}
		data, err := vfs.ReadFile(fs, dir+"/"+e.Name)
		if err != nil {
			t.Fatal(err)
		}
		if h, err := parseHeader(data); err == nil && !h.legacy && h.version == shieldVersion2 {
			v2++
		} else {
			v1++
		}
	}
	return v1, v2
}

// v1SSTWrapper writes SSTs the way builds before format v2 did — header
// version 1 over an AES-CTR body — and is the real SHIELD wrapper for
// everything else. CTR ciphertext depends only on (key, IV, offset), so
// BufferedWriter produces the very bytes the old chunked CTR writer did.
type v1SSTWrapper struct {
	lsm.FileWrapper
	kds kds.Service
}

func (w v1SSTWrapper) WrapCreate(name string, kind lsm.FileKind, f vfs.WritableFile) (vfs.WritableFile, string, error) {
	if kind != lsm.FileKindSST {
		return w.FileWrapper.WrapCreate(name, kind, f)
	}
	id, dek, err := w.kds.CreateDEK()
	if err != nil {
		return nil, "", err
	}
	iv, err := crypt.NewIV()
	if err != nil {
		return nil, "", err
	}
	if err := vfs.WriteFull(f, encodeHeader(id, iv, shieldVersion)); err != nil {
		return nil, "", err
	}
	return crypt.NewBufferedWriter(f, dek, iv, 64<<10), string(id), nil
}

// TestV1V2Coexistence: a store whose SSTs are format v1 (as builds before
// sealing wrote them) must stay fully readable when reopened by today's
// v2-writing instance, the two formats must coexist in one tree, and
// compaction must migrate everything to v2 — format is negotiated per file
// from its header, never from config.
func TestV1V2Coexistence(t *testing.T) {
	fs := vfs.NewMem()
	svc := newCrashKDS()
	modern := Config{Mode: ModeSHIELD, FS: fs, KDS: svc}
	opts := lsm.Options{MemtableSize: 16 << 10, L0CompactionTrigger: 100}

	value := func(gen string, i int) []byte {
		return []byte(fmt.Sprintf("%s-value-%04d", gen, i))
	}

	wrapper, err := modern.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	legacyOpts := opts
	legacyOpts.FS = fs
	legacyOpts.Wrapper = v1SSTWrapper{FileWrapper: wrapper, kds: svc}
	db, err := lsm.Open("db", legacyOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("old-%04d", i)), value("old", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if v1, v2 := countFormats(t, fs, "db"); v1 == 0 || v2 != 0 {
		t.Fatalf("legacy store has %d v1 / %d v2 SSTs, want all v1", v1, v2)
	}

	// A default instance opens the legacy store and writes a second
	// generation, producing a mixed-format tree.
	db2, err := Open("db", modern, opts)
	if err != nil {
		t.Fatalf("v2 open of v1 store: %v", err)
	}
	for i := 0; i < 300; i++ {
		if err := db2.Put([]byte(fmt.Sprintf("new-%04d", i)), value("new", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db2.Flush(); err != nil {
		t.Fatal(err)
	}
	v1, v2 := countFormats(t, fs, "db")
	if v1 == 0 || v2 == 0 {
		t.Fatalf("mixed store has %d v1 / %d v2 SSTs, want both present", v1, v2)
	}
	for i := 0; i < 300; i += 37 {
		for _, gen := range []string{"old", "new"} {
			got, err := db2.Get([]byte(fmt.Sprintf("%s-%04d", gen, i)))
			if err != nil {
				t.Fatalf("mixed read %s-%04d: %v", gen, i, err)
			}
			if string(got) != string(value(gen, i)) {
				t.Fatalf("mixed read %s-%04d = %q", gen, i, got)
			}
		}
	}
	// The mixed tree scrubs clean: v1 files verify by their block checksums,
	// v2 files by their GCM tag chain.
	rep, err := Scrub("db", modern, lsm.Options{}, lsm.ScrubOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("mixed-format store not clean:\n%s", rep)
	}

	// Compaction rewrites every table under the writing config: all v2.
	if err := db2.CompactRange(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if v1, v2 := countFormats(t, fs, "db"); v1 != 0 || v2 == 0 {
		t.Fatalf("compacted store has %d v1 / %d v2 SSTs, want all v2", v1, v2)
	}

	// The migrated store reopens and serves both generations.
	db3, err := Open("db", modern, opts)
	if err != nil {
		t.Fatalf("reopen of migrated store: %v", err)
	}
	defer db3.Close()
	for i := 0; i < 300; i += 37 {
		for _, gen := range []string{"old", "new"} {
			got, err := db3.Get([]byte(fmt.Sprintf("%s-%04d", gen, i)))
			if err != nil {
				t.Fatalf("migrated read %s-%04d: %v", gen, i, err)
			}
			if string(got) != string(value(gen, i)) {
				t.Fatalf("migrated read %s-%04d = %q", gen, i, got)
			}
		}
	}
}

// TestEpochBumpCrashEnumeration targets the freshness-epoch write path:
// every reopen advances the epoch, rolls a new manifest, repoints CURRENT,
// and only then seals the floor into the secure cache. A crash at any sync
// boundary inside that sequence must leave a store that reopens cleanly —
// in particular it must never manufacture a spurious ErrEpochRegression
// (the floor is sealed strictly after the manifest carrying the epoch is
// durable, so floor <= recovered epoch holds at every crash point).
func TestEpochBumpCrashEnumeration(t *testing.T) {
	cfs := vfs.NewCrash(23)
	svc := newCrashKDS()
	if err := cfs.MkdirAll("keys"); err != nil {
		t.Fatal(err)
	}
	cache, err := seccache.Open(cfs, "keys/cache.bin", []byte("pk"))
	if err != nil {
		t.Fatal(err)
	}
	opts := lsm.Options{MemtableSize: 16 << 10, L0CompactionTrigger: 100}

	// Seed the store and ratchet the epoch a few generations up, so a crash
	// image restored mid-bump carries a meaningful sealed floor.
	db, err := Open("db", shieldCrashConfig(cfs, svc, cache), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Enumerate every sync boundary across two epoch-bumping reopens.
	type point struct {
		event string
		img   *vfs.CrashImage
	}
	var (
		mu     sync.Mutex
		points []point
	)
	cfs.AfterSync(func(event string, img *vfs.CrashImage) {
		mu.Lock()
		points = append(points, point{event, img})
		mu.Unlock()
	})
	for r := 0; r < 2; r++ {
		db, err := Open("db", shieldCrashConfig(cfs, svc, cache), opts)
		if err != nil {
			t.Fatalf("reopen %d: %v", r, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cfs.AfterSync(nil)
	mu.Lock()
	pts := points
	mu.Unlock()
	if len(pts) < 4 {
		t.Fatalf("only %d crash points across the epoch bumps, want >= 4", len(pts))
	}
	t.Logf("enumerated %d crash points across 2 epoch-bumping reopens", len(pts))

	for i, pt := range pts {
		for _, mode := range []string{"strict", "torn"} {
			var fs *vfs.MemFS
			if mode == "strict" {
				fs = pt.img.Strict()
			} else {
				fs = pt.img.Torn(int64(i))
			}
			c2, err := seccache.Open(fs, "keys/cache.bin", []byte("pk"))
			if err != nil {
				t.Fatalf("%s point %d (%s): cache reopen: %v", mode, i, pt.event, err)
			}
			db2, err := Open("db", shieldCrashConfig(fs, svc, c2), opts)
			if errors.Is(err, lsm.ErrEpochRegression) {
				t.Fatalf("%s point %d (%s): spurious epoch regression with no rollback: %v", mode, i, pt.event, err)
			}
			if err != nil {
				t.Fatalf("%s point %d (%s): reopen: %v", mode, i, pt.event, err)
			}
			got, err := db2.Get([]byte("k007"))
			if err != nil || string(got) != "v007" {
				t.Fatalf("%s point %d (%s): Get(k007) = %q, %v", mode, i, pt.event, got, err)
			}
			db2.Close()
		}
	}
}

// TestRollbackFailClosedAndScrubRestamp is the freshness attack end to end:
// an adversary restores an older snapshot of the data directory while the
// secure cache (off the attacked storage) still holds the newer sealed
// floor. Open and Scrub must both fail closed with ErrEpochRegression; a
// Scrub under the explicit AllowRollback override must report the
// regression, re-stamp the restored tree past the floor, and leave a store
// that subsequent opens accept without any override.
func TestRollbackFailClosedAndScrubRestamp(t *testing.T) {
	cfs := vfs.NewCrash(5)
	svc := newCrashKDS()
	cacheFS := vfs.NewMem() // the adversary cannot roll this back
	cache, err := seccache.Open(cacheFS, "cache.bin", []byte("pk"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := shieldCrashConfig(cfs, svc, cache)
	opts := lsm.Options{MemtableSize: 16 << 10, L0CompactionTrigger: 100}

	db, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("stable"), []byte("generation-1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	stale := cfs.Snapshot() // the adversary's captured image

	// Newer history: overwrite the key and add one, ratcheting the floor.
	db, err = Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("stable"), []byte("generation-2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("recent"), []byte("only-in-gen-2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The attack: the data directory reverts to the stale image; the sealed
	// floor in the secure cache does not.
	rolled := stale.Strict()
	rolledCfg := cfg
	rolledCfg.FS = rolled

	if _, err := Open("db", rolledCfg, opts); !errors.Is(err, lsm.ErrEpochRegression) {
		t.Fatalf("open of rolled-back store: got %v, want ErrEpochRegression", err)
	}
	if _, err := Scrub("db", rolledCfg, opts, lsm.ScrubOptions{}); !errors.Is(err, lsm.ErrEpochRegression) {
		t.Fatalf("scrub of rolled-back store: got %v, want ErrEpochRegression", err)
	}

	// Operator override: scrub with AllowRollback accepts the loss, reports
	// it, and re-stamps the tree as a fresh generation past the floor.
	rep, err := Scrub("db", rolledCfg, lsm.Options{AllowRollback: true}, lsm.ScrubOptions{})
	if err != nil {
		t.Fatalf("scrub with AllowRollback: %v", err)
	}
	if !rep.EpochRegressed {
		t.Fatalf("scrub accepted the rollback but did not report it:\n%s", rep)
	}
	var stale2 int
	for _, v := range rep.Verdicts {
		if v == lsm.VerdictStaleEpoch {
			stale2++
		}
	}
	if stale2 == 0 {
		t.Fatalf("no stale-epoch verdicts in rollback scrub:\n%s", rep)
	}

	// The re-stamped store opens with no override and serves the (old, but
	// now declared-current) generation-1 state.
	db2, err := Open("db", rolledCfg, opts)
	if err != nil {
		t.Fatalf("open after re-stamp: %v", err)
	}
	defer db2.Close()
	got, err := db2.Get([]byte("stable"))
	if err != nil || string(got) != "generation-1" {
		t.Fatalf("Get(stable) after accepted rollback = %q, %v; want generation-1", got, err)
	}
	if _, err := db2.Get([]byte("recent")); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("Get(recent) after accepted rollback: %v, want ErrNotFound (that history was rolled away)", err)
	}
}
