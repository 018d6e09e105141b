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

// countFormats classifies every SST in dir by its header version: the
// current v3, or an older one.
func countFormats(t *testing.T, fs vfs.FS, dir string) (v1, v3 int) {
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
		if h, err := parseHeader(data); err == nil && h.version == shieldVersion3 {
			v3++
		} else {
			v1++
		}
	}
	return v1, v3
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
// sealing wrote them) is refused by today's serving path with
// lsm.ErrNeedsMigrate, before anything is written. Migrate rewrites every
// table to v3; the serving path then reads the old generation, writes a
// second one next to it, and the store scrubs clean.
func TestV1V2Coexistence(t *testing.T) {
	fs := vfs.NewMem()
	opts := lsm.Options{MemtableSize: 16 << 10, L0CompactionTrigger: 100}
	modern := v1Store(t, fs, newCrashKDS(), opts, 300, false)

	if _, err := Open("db", modern, opts); !errors.Is(err, lsm.ErrNeedsMigrate) {
		t.Fatalf("serving open of the v1 store: %v, want lsm.ErrNeedsMigrate", err)
	}
	if err := Migrate("db", modern, opts); err != nil {
		t.Fatal(err)
	}
	checkV1StoreMigrated(t, modern, opts, 300)

	db, err := Open("db", modern, opts)
	if err != nil {
		t.Fatal(err)
	}
	newValue := func(i int) []byte { return []byte(fmt.Sprintf("new-value-%04d", i)) }
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("new-%04d", i)), newValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i += 37 {
		if got, err := db.Get([]byte(fmt.Sprintf("old-%04d", i))); err != nil || string(got) != string(v1Value(i)) {
			t.Fatalf("Get(old-%04d) = %q, %v", i, got, err)
		}
		if got, err := db.Get([]byte(fmt.Sprintf("new-%04d", i))); err != nil || string(got) != string(newValue(i)) {
			t.Fatalf("Get(new-%04d) = %q, %v", i, got, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checkCurrentHeaders(t, modern, "db")
	rep, err := Scrub("db", modern, lsm.Options{}, lsm.ScrubOptions{DryRun: true})
	if err != nil || !rep.Clean() {
		t.Fatalf("migrated store not clean: %v\n%s", err, rep)
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
