package seccache

import (
	"encoding/hex"
	"errors"
	"fmt"
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

func TestCrashDuringSave(t *testing.T) {
	// Power-loss simulation around Save: at every sync boundary the durable
	// image must either hold the previous sealed cache or the new one —
	// never an unreadable hybrid — and reopening must always succeed.
	cfs := vfs.NewCrash(7)
	var images []*vfs.CrashImage
	cfs.AfterSync(func(event string, img *vfs.CrashImage) {
		images = append(images, img)
	})

	c, err := Open(cfs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	deks := make(map[kds.KeyID]crypt.DEK)
	for i := 0; i < 5; i++ {
		id := kds.KeyID(fmt.Sprintf("dek-%d", i))
		deks[id] = mustDEK(t)
		if err := c.Put(id, deks[id]); err != nil {
			t.Fatal(err)
		}
	}
	if len(images) == 0 {
		t.Fatal("no sync boundaries during saves")
	}
	for i, img := range images {
		for _, mode := range []string{"strict", "torn"} {
			var fs *vfs.MemFS
			if mode == "strict" {
				fs = img.Strict()
			} else {
				fs = img.Torn(0)
			}
			c2, err := Open(fs, "cache.bin", []byte("pw"))
			if err != nil {
				t.Fatalf("%s point %d: reopen: %v", mode, i, err)
			}
			// Every entry present is one we actually stored.
			for id, want := range deks {
				got, err := c2.Get(id)
				if errors.Is(err, ErrNotCached) {
					continue
				}
				if err != nil {
					t.Fatalf("%s point %d: Get(%s): %v", mode, i, id, err)
				}
				if got != want {
					t.Fatalf("%s point %d: DEK %s mangled", mode, i, id)
				}
			}
		}
	}
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
