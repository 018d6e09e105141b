package seccache

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/vfs"
)

func mustDEK(t *testing.T) crypt.DEK {
	t.Helper()
	dek, err := crypt.NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	return dek
}

func TestPutGetDelete(t *testing.T) {
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	dek := mustDEK(t)
	if err := c.Put("dek-1", dek); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("dek-1")
	if err != nil {
		t.Fatal(err)
	}
	if got != dek {
		t.Fatal("round trip mismatch")
	}
	if _, err := c.Get("dek-2"); !errors.Is(err, ErrNotCached) {
		t.Fatalf("want ErrNotCached, got %v", err)
	}
	if err := c.Delete("dek-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("dek-1"); !errors.Is(err, ErrNotCached) {
		t.Fatalf("deleted key still present: %v", err)
	}
	// Deleting a missing key is a no-op.
	if err := c.Delete("dek-1"); err != nil {
		t.Fatal(err)
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	deks := make(map[kds.KeyID]crypt.DEK)
	for i := 0; i < 50; i++ {
		id := kds.KeyID(fmt.Sprintf("dek-%03d", i))
		deks[id] = mustDEK(t)
		if err := c.Put(id, deks[id]); err != nil {
			t.Fatal(err)
		}
	}

	c2, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 50 {
		t.Fatalf("reopened with %d entries", c2.Len())
	}
	for id, want := range deks {
		got, err := c2.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if got != want {
			t.Fatalf("DEK %s corrupted across reopen", id)
		}
	}
}

func TestWrongPasskeyFailsClosed(t *testing.T) {
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("correct"))
	if err != nil {
		t.Fatal(err)
	}
	c.Put("dek-1", mustDEK(t))

	if _, err := Open(fs, "cache.bin", []byte("wrong")); !errors.Is(err, ErrBadPasskey) {
		t.Fatalf("wrong passkey: %v", err)
	}
}

func TestTamperDetection(t *testing.T) {
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	c.Put("dek-1", mustDEK(t))

	data, err := vfs.ReadFile(fs, "cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	// Flip one ciphertext byte.
	data[len(data)-40] ^= 0x01
	if err := vfs.WriteFile(fs, "cache.bin", data); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, "cache.bin", []byte("pw")); !errors.Is(err, ErrBadPasskey) {
		t.Fatalf("tampered cache accepted: %v", err)
	}
}

func TestNoPlaintextDEKOnDisk(t *testing.T) {
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	dek := mustDEK(t)
	c.Put("dek-secret", dek)

	data, err := vfs.ReadFile(fs, "cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	// Neither the raw key bytes, the hex encoding, nor the key id may
	// appear in the sealed file.
	hexKey := hex.EncodeToString(dek[:])
	if containsSub(data, dek[:]) || containsSub(data, []byte(hexKey)) || containsSub(data, []byte("dek-secret")) {
		t.Fatal("plaintext key material leaked into the cache file")
	}
}

func containsSub(haystack, needle []byte) bool {
	if len(needle) == 0 || len(haystack) < len(needle) {
		return false
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func TestSharedBetweenInstances(t *testing.T) {
	// Two cache handles on the same file (co-located instances with the
	// same passkey): writes by one are visible after the other reopens.
	fs := vfs.NewMem()
	a, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	dek := mustDEK(t)
	a.Put("dek-shared", dek)

	b, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("dek-shared")
	if err != nil {
		t.Fatal(err)
	}
	if got != dek {
		t.Fatal("shared cache mismatch")
	}
}

func TestStatsAndConcurrency(t *testing.T) {
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := kds.KeyID(fmt.Sprintf("dek-%d-%d", i, j))
				c.Put(id, crypt.DEK{})
				c.Get(id)
				c.Get("dek-missing")
			}
		}(i)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits != 400 || misses != 400 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestCorruptedTruncatedFile(t *testing.T) {
	// Structural damage is provably corruption, not a passkey mismatch. The
	// cache is only an optimization (DEKs re-fetch from the KDS), so a
	// truncated file cold-starts instead of failing the open.
	fs := vfs.NewMem()
	if err := vfs.WriteFile(fs, "cache.bin", []byte("short")); err != nil {
		t.Fatal(err)
	}
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatalf("truncated cache should cold-start: %v", err)
	}
	if !c.Recovered() {
		t.Fatal("Recovered() = false after cold-starting a corrupt cache")
	}
	if c.Len() != 0 {
		t.Fatalf("cold-started cache has %d entries", c.Len())
	}
	// The cold cache is fully functional and persists over the wreck.
	if err := c.Put("dek-1", mustDEK(t)); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Recovered() || c2.Len() != 1 {
		t.Fatalf("reopen after cold-start save: recovered=%v len=%d", c2.Recovered(), c2.Len())
	}
}

func TestBadMagicColdStarts(t *testing.T) {
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	c.Put("dek-1", mustDEK(t))
	data, err := vfs.ReadFile(fs, "cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if err := vfs.WriteFile(fs, "cache.bin", data); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatalf("bad-magic cache should cold-start: %v", err)
	}
	if !c2.Recovered() || c2.Len() != 0 {
		t.Fatalf("recovered=%v len=%d", c2.Recovered(), c2.Len())
	}
}

func TestLeftoverTmpRemovedOnOpen(t *testing.T) {
	// A crash between WriteFile(cache.tmp) and Rename leaves a stale .tmp
	// next to an intact live cache; Open must discard it and load the live
	// file untouched.
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	dek := mustDEK(t)
	c.Put("dek-1", dek)
	if err := vfs.WriteFile(fs, "cache.bin.tmp", []byte("partial save wreckage")); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c2.Get("dek-1"); err != nil || got != dek {
		t.Fatalf("live cache damaged by tmp cleanup: %v", err)
	}
	if _, err := fs.Stat("cache.bin.tmp"); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("stale tmp survived open: %v", err)
	}
}

// snapFS hands out files that capture a crash image after every Write, so
// the images include the moment a record is written and not yet synced:
// the state a torn image tears.
type snapFS struct {
	*vfs.CrashFS
	onWrite func(img *vfs.CrashImage)
}

func (s snapFS) Create(name string) (vfs.WritableFile, error) {
	f, err := s.CrashFS.Create(name)
	if err != nil {
		return nil, err
	}
	return snapFile{f, s}, nil
}

type snapFile struct {
	vfs.WritableFile
	fs snapFS
}

func (f snapFile) Write(p []byte) (int, error) {
	n, err := f.WritableFile.Write(p)
	f.fs.onWrite(f.fs.Snapshot())
	return n, err
}

// TestCrashDuringSave: power loss at every write and sync of the cache's
// appends and of the checkpoints (Open's and one the log's growth
// triggers), each image reopened strict, torn, and torn with the lost part
// of the tail zero-filled (the file's size landed, its data did not).
// Every reopen succeeds,
// holds only DEKs that were stored, holds every DEK, deletion and epoch
// floor whose call returned before the image was taken (the call in flight
// may or may not have landed), and reads a torn last record as a torn
// tail, not as corruption.
func TestCrashDuringSave(t *testing.T) {
	type state struct {
		deks   map[kds.KeyID]crypt.DEK // absent: never stored or deleted
		epochs map[string]uint64
	}
	type point struct {
		img      *vfs.CrashImage
		acked    state
		inflight kds.KeyID // the ID the call in flight changes, if any
		epochMax uint64    // the floor the call in flight seals, if any
	}
	acked := state{deks: map[kds.KeyID]crypt.DEK{}, epochs: map[string]uint64{}}
	stored := map[crypt.DEK]kds.KeyID{}
	var (
		points   []point
		inflight kds.KeyID
		epochMax uint64
		syncDirs int
	)
	capture := func(img *vfs.CrashImage) {
		cp := state{deks: map[kds.KeyID]crypt.DEK{}, epochs: map[string]uint64{}}
		for id, d := range acked.deks {
			cp.deks[id] = d
		}
		for s, e := range acked.epochs {
			cp.epochs[s] = e
		}
		points = append(points, point{img, cp, inflight, epochMax})
	}
	cfs := vfs.NewCrash(7)
	cfs.AfterSync(func(event string, img *vfs.CrashImage) {
		if strings.HasPrefix(event, "syncdir:") {
			syncDirs++
		}
		capture(img)
	})
	fs := snapFS{cfs, capture}

	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	put := func(id kds.KeyID) {
		dek := mustDEK(t)
		stored[dek] = id
		inflight = id
		if err := c.Put(id, dek); err != nil {
			t.Fatal(err)
		}
		acked.deks[id], inflight = dek, ""
	}
	del := func(id kds.KeyID) {
		inflight = id
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(acked.deks, id)
		inflight = ""
	}
	seal := func(e uint64) {
		epochMax = e
		if err := c.SealEpoch("db", e); err != nil {
			t.Fatal(err)
		}
		acked.epochs["db"] = e
	}
	for i := 0; i < 5; i++ {
		put(kds.KeyID(fmt.Sprintf("dek-%d", i)))
	}
	seal(3)
	del("dek-2")
	// Churn until the log passes twice the live set and checkpoints.
	for i := 0; syncDirs < 2; i++ {
		if i > 4*checkpointSlack {
			t.Fatal("no checkpoint after the log grew past twice the live set")
		}
		switch i % 3 {
		case 0:
			put("churn")
		case 1:
			del("churn")
		case 2:
			seal(uint64(4 + i))
		}
	}
	put("after-checkpoint")
	seal(epochMax + 1)

	torn := map[string]int{}
	for i, pt := range points {
		for _, mode := range []string{"strict", "torn", "zero-filled"} {
			var mfs *vfs.MemFS
			switch mode {
			case "strict":
				mfs = pt.img.Strict()
			case "torn":
				mfs = pt.img.Torn(0)
			default:
				mfs = pt.img.ZeroFilled(0)
			}
			if data, err := vfs.ReadFile(mfs, "cache.bin"); err == nil && endsTorn(t, data) {
				torn[mode]++
			}
			c2, err := Open(mfs, "cache.bin", []byte("pw"))
			if err != nil {
				t.Fatalf("%s point %d: reopen: %v", mode, i, err)
			}
			if c2.Recovered() {
				t.Fatalf("%s point %d: reopen cold-started a cache a crash left", mode, i)
			}
			for id, got := range c2.entries {
				if stored[got] != id {
					t.Fatalf("%s point %d: %s holds a DEK never stored under it", mode, i, id)
				}
			}
			for id, want := range pt.acked.deks {
				if got, ok := c2.entries[id]; id != pt.inflight && (!ok || got != want) {
					t.Fatalf("%s point %d: acknowledged DEK %s lost or stale", mode, i, id)
				}
			}
			for id := range c2.entries {
				if _, ok := pt.acked.deks[id]; !ok && id != pt.inflight {
					t.Fatalf("%s point %d: %s present, but its deletion was acknowledged", mode, i, id)
				}
			}
			got := c2.epochs["db"]
			if want := pt.acked.epochs["db"]; got < want || got > max(want, pt.epochMax) {
				t.Fatalf("%s point %d: epoch floor %d, acknowledged %d, in flight up to %d", mode, i, got, want, pt.epochMax)
			}
		}
	}
	for _, mode := range []string{"torn", "zero-filled"} {
		if torn[mode] == 0 {
			t.Fatalf("none of %d %s images tore a record", len(points), mode)
		}
	}
	t.Logf("%d crash points; images that tore a record: %v", len(points), torn)
}

// TestEpochRatchet: the sealed freshness-epoch floor only moves up. Sealing
// a lower value is a silent no-op, floors are per store, and the values
// ride the same sealed (authenticated) payload as the DEKs, so they
// survive a reopen and fail closed with the rest of the cache.
func TestEpochRatchet(t *testing.T) {
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.EpochFloor("db"); ok {
		t.Fatal("fresh cache claims a sealed floor")
	}
	if err := c.SealEpoch("db", 5); err != nil {
		t.Fatal(err)
	}
	if err := c.SealEpoch("db", 3); err != nil { // ratchet: ignored
		t.Fatal(err)
	}
	if got, ok := c.EpochFloor("db"); !ok || got != 5 {
		t.Fatalf("floor = %d, %v after sealing 5 then 3; want 5, true", got, ok)
	}
	if err := c.SealEpoch("db", 9); err != nil {
		t.Fatal(err)
	}
	if err := c.SealEpoch("other", 2); err != nil { // independent store
		t.Fatal(err)
	}

	// The floors persist across a reopen with the right passkey...
	c2, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.EpochFloor("db"); !ok || got != 9 {
		t.Fatalf("reopened floor(db) = %d, %v; want 9, true", got, ok)
	}
	if got, ok := c2.EpochFloor("other"); !ok || got != 2 {
		t.Fatalf("reopened floor(other) = %d, %v; want 2, true", got, ok)
	}
	if err := c2.SealEpoch("db", 7); err != nil { // still ratcheted
		t.Fatal(err)
	}
	if got, _ := c2.EpochFloor("db"); got != 9 {
		t.Fatalf("floor moved backwards to %d after reopen", got)
	}

	// ...and are unreadable without it: a wrong passkey fails the open, so
	// an attacker cannot quietly lower the floor by rewriting the file.
	if _, err := Open(fs, "cache.bin", []byte("wrong")); err == nil {
		t.Fatal("wrong passkey opened the cache holding the epoch floors")
	}
}
