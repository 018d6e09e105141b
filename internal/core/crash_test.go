package core

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/vfs"
	"shield/internal/vfs/vfstest"
)

// newCrashKDS returns an in-memory KDS with unlimited fetches: the KDS is a
// separate service and survives the storage-server "crash", and recovery
// re-fetches DEKs as often as it needs.
func newCrashKDS() kds.Service {
	return kds.NewLocal(kds.NewStore(kds.Policy{}), "server-1")
}

func shieldCrashConfig(fs vfs.FS, svc kds.Service, cache *seccache.Cache) Config {
	return Config{
		Mode:          ModeSHIELD,
		FS:            fs,
		KDS:           svc,
		Cache:         cache,
		WALBufferSize: 512,
	}
}

func shieldCrashLSMOptions() lsm.Options {
	return lsm.Options{
		SyncWrites:          true,
		MemtableSize:        1 << 10,
		L0CompactionTrigger: 2,
		BaseLevelSize:       8 << 10,
		TargetFileSize:      4 << 10,
		MaxManifestFileSize: 2 << 10,
	}
}

// TestShieldCrashRecoveryEnumeration is the full-stack version of the lsm
// crash harness, under both key policies: per-file DEKs from a KDS with the
// secure DEK cache on the same failing disk, and the instance key (which
// also seals CURRENT); buffered WAL in both. Every sync boundary must yield
// a recoverable image with all synced-acked writes intact.
func TestShieldCrashRecoveryEnumeration(t *testing.T) {
	svc := newCrashKDS()
	dek, err := crypt.NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("shield", func(t *testing.T) {
		crashEnumeration(t, func(fs vfs.FS, cache *seccache.Cache) Config { return shieldCrashConfig(fs, svc, cache) })
	})
	t.Run("encfs", func(t *testing.T) {
		crashEnumeration(t, func(fs vfs.FS, _ *seccache.Cache) Config {
			return Config{Mode: ModeEncFS, FS: fs, InstanceDEK: dek, WALBufferSize: 512}
		})
	})
}

func crashEnumeration(t *testing.T, config func(fs vfs.FS, cache *seccache.Cache) Config) {
	cfs := vfs.NewCrash(11)
	type point struct {
		event           string
		img             *vfs.CrashImage
		acked, captured int64
	}
	var (
		mu     sync.Mutex
		points []point
		acked  atomic.Int64
	)
	// The engine's flush and compaction goroutines and the secure cache sync
	// while the writer keeps getting acks: each point promises the count
	// noted before its sync, so both reach the disk through afs.
	afs := vfstest.NewAckedFS(cfs, acked.Load, func(event string, img *vfs.CrashImage, acked, captured int64) {
		mu.Lock()
		points = append(points, point{event, img, acked, captured})
		mu.Unlock()
	})

	if err := afs.MkdirAll("keys"); err != nil {
		t.Fatal(err)
	}
	cache, err := seccache.Open(afs, "keys/cache.bin", []byte("pk"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open("db", config(afs, cache), shieldCrashLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	const nops = 100
	value := func(i int) []byte {
		return []byte(fmt.Sprintf("v%04d-%048d", i, i))
	}
	for i := 0; i < nops; i++ {
		k := fmt.Sprintf("k%03d", i%60)
		if err := db.Put([]byte(k), value(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked.Add(1)
		if (i+1)%25 == 0 {
			if err := db.Flush(); err != nil {
				t.Fatalf("flush at %d: %v", i, err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	pts := points
	mu.Unlock()
	if len(pts) < 50 {
		t.Fatalf("only %d crash points, want >= 50", len(pts))
	}
	t.Logf("enumerated %d crash points", len(pts))

	for i, pt := range pts {
		for _, mode := range []string{"strict", "torn"} {
			var fs *vfs.MemFS
			if mode == "strict" {
				fs = pt.img.Strict()
			} else {
				fs = pt.img.Torn(0)
			}
			// The secure cache is on the same crashed disk; a corrupt image
			// must cold-start it, not fail the open.
			c2, err := seccache.Open(fs, "keys/cache.bin", []byte("pk"))
			if err != nil {
				t.Fatalf("%s point %d (%s): cache reopen: %v", mode, i, pt.event, err)
			}
			db2, err := Open("db", config(fs, c2), shieldCrashLSMOptions())
			if err != nil {
				t.Fatalf("%s point %d (%s): reopen: %v\nimage:\n%s", mode, i, pt.event, err, pt.img)
			}
			// The image must hold the state after the first k ops, for some
			// k from the count acked before the sync to the op in flight
			// when the image was captured.
			got := make(map[string]string)
			for j := 0; j < 60 && j < nops; j++ {
				k := fmt.Sprintf("k%03d", j)
				v, err := db2.Get([]byte(k))
				switch {
				case err == nil:
					got[k] = string(v)
				case !errors.Is(err, lsm.ErrNotFound):
					t.Fatalf("%s point %d (%s, acked=%d): Get(%s): %v", mode, i, pt.event, pt.acked, k, err)
				}
			}
			after := func(n int64) map[string]string {
				m := make(map[string]string)
				for j := int64(0); j < n; j++ {
					m[fmt.Sprintf("k%03d", j%60)] = string(value(int(j)))
				}
				return m
			}
			hi := min(pt.captured+1, nops)
			matched := false
			for n := pt.acked; n <= hi && !matched; n++ {
				matched = maps.Equal(got, after(n))
			}
			if !matched {
				t.Fatalf("%s point %d (%s, acked=%d, captured=%d): the image holds the state after no prefix of %d to %d ops: %v", mode, i, pt.event, pt.acked, pt.captured, pt.acked, hi, got)
			}
			db2.Close()
		}
	}
}

// TestShieldWALBufferLossWindow is the property test for the
// application-managed WAL buffer (Section 5.3) under power loss with
// SyncWrites off: the surviving writes are always a contiguous prefix of
// commit order (the loss window is exactly the acked-but-unflushed tail),
// and everything written before a completed Flush always survives.
func TestShieldWALBufferLossWindow(t *testing.T) {
	cfs := vfs.NewCrash(3)
	svc := newCrashKDS()
	cfg := shieldCrashConfig(cfs, svc, nil)

	opts := lsm.Options{
		MemtableSize:        1 << 20, // no size-triggered flushes
		L0CompactionTrigger: 100,
	}
	db, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		img     *vfs.CrashImage
		acked   int
		durable int // acked ops covered by the last completed Flush
	}
	var snaps []snap
	const nops = 60
	durable := 0
	for i := 0; i < nops; i++ {
		k := fmt.Sprintf("op-%04d", i)
		if err := db.Put([]byte(k), []byte(strings.Repeat("x", 32)+k)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%17 == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			durable = i + 1
		}
		snaps = append(snaps, snap{img: cfs.Snapshot(), acked: i + 1, durable: durable})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for i, sn := range snaps {
		for _, mode := range []string{"strict", "torn"} {
			var fs *vfs.MemFS
			if mode == "strict" {
				fs = sn.img.Strict()
			} else {
				fs = sn.img.Torn(0)
			}
			db2, err := Open("db", shieldCrashConfig(fs, svc, nil), opts)
			if err != nil {
				t.Fatalf("%s snap %d: reopen: %v", mode, i, err)
			}
			// Count survivors and check prefix-ness: if op j survived, every
			// op before j must have survived too.
			survived := 0
			for j := 0; j < sn.acked; j++ {
				_, err := db2.Get([]byte(fmt.Sprintf("op-%04d", j)))
				switch {
				case err == nil:
					if survived != j {
						t.Fatalf("%s snap %d: op %d survived but op %d did not — loss window is not a contiguous tail",
							mode, i, j, survived)
					}
					survived = j + 1
				case errors.Is(err, lsm.ErrNotFound):
					// keep scanning to catch out-of-order survival
				default:
					t.Fatalf("%s snap %d: Get(op-%04d): %v", mode, i, j, err)
				}
			}
			if survived < sn.durable {
				t.Fatalf("%s snap %d: only %d ops survived, but %d were flushed before the crash",
					mode, i, survived, sn.durable)
			}
			db2.Close()
		}
	}
}

// TestShieldScrubWithKeys: under either key policy the scrub decrypts with
// the engine's own wrapper, verifies every block, quarantines a bit-flipped
// encrypted SST, and repoints CURRENT (sealed under the instance policy) at
// a repaired manifest the engine reopens.
func TestShieldScrubWithKeys(t *testing.T) {
	for _, mode := range []Mode{ModeSHIELD, ModeEncFS} {
		t.Run(mode.String(), func(t *testing.T) { scrubWithKeys(t, mode) })
	}
}

func scrubWithKeys(t *testing.T, mode Mode) {
	fs := vfs.NewMem()
	cfg := testConfig(t, mode, fs)
	opts := lsm.Options{MemtableSize: 16 << 10, L0CompactionTrigger: 100}
	db, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%50 == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub("db", cfg, lsm.Options{}, lsm.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean %v DB not clean:\n%s", mode, rep)
	}

	// Bit-flip an SST body (past the plaintext header) and re-scrub.
	var victim string
	entries, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name, ".sst") {
			victim = "db/" + e.Name
			break
		}
	}
	data, err := vfs.ReadFile(fs, victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := vfs.WriteFile(fs, victim, data); err != nil {
		t.Fatal(err)
	}
	rep, err = Scrub("db", cfg, lsm.Options{}, lsm.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || !rep.ManifestRepaired {
		t.Fatalf("quarantined=%d repaired=%v, want 1/true\n%s", rep.Quarantined, rep.ManifestRepaired, rep)
	}
	// The DB reopens cleanly around the quarantined file.
	db2, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatalf("reopen after scrub: %v", err)
	}
	db2.Close()
}

// TestShieldScrubKeylessRefusesManifest: scrubbing an encrypted database
// without keys must refuse to "repair" the unreadable manifest rather than
// discard the tree.
func TestShieldScrubKeylessRefuses(t *testing.T) {
	fs := vfs.NewMem()
	svc := newCrashKDS()
	cfg := shieldCrashConfig(fs, svc, nil)
	db, err := Open("db", cfg, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	keyless := Config{Mode: ModeNone, FS: fs}
	if _, err := Scrub("db", keyless, lsm.Options{}, lsm.ScrubOptions{}); err == nil {
		t.Fatal("keyless scrub of an encrypted DB did not refuse")
	} else if !strings.Contains(err.Error(), "encrypted") {
		t.Fatalf("unexpected refusal: %v", err)
	}
	// Nothing was harmed: the DB still opens with keys.
	db2, err := Open("db", cfg, lsm.Options{})
	if err != nil {
		t.Fatalf("reopen after keyless scrub attempt: %v", err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
}
