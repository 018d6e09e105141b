package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

func newTestKDS(t *testing.T) (*kds.Store, kds.Service) {
	t.Helper()
	store := kds.NewStore(kds.Policy{MaxFetches: 1})
	return store, kds.NewLocal(store, "server-1")
}

func smallOpts() lsm.Options {
	return lsm.Options{
		MemtableSize:        64 << 10,
		BaseLevelSize:       256 << 10,
		TargetFileSize:      64 << 10,
		L0CompactionTrigger: 4,
	}
}

// compactRangeOnlyOpts keeps background compaction out of reach: L0 never
// reaches its trigger and L1 never its target, so CompactRange is the only
// compaction, and no table is being created while sstDEKIDs lists them.
func compactRangeOnlyOpts() lsm.Options {
	opts := smallOpts()
	opts.MemtableSize = 256 << 10
	opts.L0CompactionTrigger = 100
	opts.BaseLevelSize = 64 << 20
	return opts
}

func testConfig(t *testing.T, mode Mode, fs vfs.FS) Config {
	t.Helper()
	cfg := Config{Mode: mode, FS: fs, WALBufferSize: 512}
	switch mode {
	case ModeEncFS:
		dek, err := crypt.NewDEK()
		if err != nil {
			t.Fatal(err)
		}
		cfg.InstanceDEK = dek
	case ModeSHIELD:
		_, svc := newTestKDS(t)
		cfg.KDS = svc
	}
	return cfg
}

// roundTrip exercises put/flush/compact/get/reopen under one mode.
func roundTrip(t *testing.T, mode Mode) {
	fs := vfs.NewMem()
	cfg := testConfig(t, mode, fs)
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}

	const n = 5000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", i)
		v := fmt.Sprintf("value-%06d-%s", i, "PLAINTEXTMARKER")
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 97 {
		k := fmt.Sprintf("key-%06d", i)
		v, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("mode %v Get(%s): %v", mode, k, err)
		}
		want := fmt.Sprintf("value-%06d-%s", i, "PLAINTEXTMARKER")
		if string(v) != want {
			t.Fatalf("mode %v Get(%s) = %q", mode, k, v)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the same config (same KDS/DEK) and read again.
	db2, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatalf("mode %v reopen: %v", mode, err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("key-000042"))
	if err != nil {
		t.Fatalf("mode %v after reopen: %v", mode, err)
	}
	if !bytes.Contains(v, []byte("value-000042")) {
		t.Fatalf("mode %v wrong value after reopen: %q", mode, v)
	}
}

func TestRoundTripNone(t *testing.T)   { roundTrip(t, ModeNone) }
func TestRoundTripEncFS(t *testing.T)  { roundTrip(t, ModeEncFS) }
func TestRoundTripSHIELD(t *testing.T) { roundTrip(t, ModeSHIELD) }

// TestNoPlaintextOnDisk is the core confidentiality property: under EncFS
// and SHIELD no stored byte sequence reveals the values we wrote.
func TestNoPlaintextOnDisk(t *testing.T) {
	marker := []byte("SUPERSECRETVALUE-0123456789")
	for _, mode := range []Mode{ModeEncFS, ModeSHIELD} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := vfs.NewMem()
			cfg := testConfig(t, mode, fs)
			db, err := Open("db", cfg, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("k%06d", i)
				v := append([]byte{}, marker...)
				if err := db.Put([]byte(k), v); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			// Scan every stored file for the plaintext marker.
			entries, err := fs.List("db")
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := vfs.ReadFile(fs, "db/"+e.Name)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(data, marker) {
					t.Fatalf("mode %v: plaintext marker found in %s", mode, e.Name)
				}
				// Keys must not leak either.
				if bytes.Contains(data, []byte("k000123")) {
					t.Fatalf("mode %v: plaintext key found in %s", mode, e.Name)
				}
			}
		})
	}

	// Sanity check: with no encryption the marker IS on disk, proving the
	// scan actually detects plaintext.
	fs := vfs.NewMem()
	db, err := Open("db", Config{Mode: ModeNone, FS: fs}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), marker); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	found := false
	entries, _ := fs.List("db")
	for _, e := range entries {
		data, _ := vfs.ReadFile(fs, "db/"+e.Name)
		if bytes.Contains(data, marker) {
			found = true
		}
	}
	if !found {
		t.Fatal("plaintext scan found nothing even without encryption; scan is broken")
	}
}

// TestUniqueDEKPerFile verifies SHIELD's per-file key property: every SST
// and WAL carries a distinct DEK-ID.
func TestUniqueDEKPerFile(t *testing.T) {
	fs := vfs.NewMem()
	store, svc := newTestKDS(t)
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc}
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[kds.KeyID]string)
	checked := 0
	for _, e := range entries {
		if e.Name == "CURRENT" {
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
		id := h.dekID
		if prev, dup := seen[id]; dup {
			t.Fatalf("DEK-ID %s reused by %s and %s", id, prev, e.Name)
		}
		seen[id] = e.Name
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d encrypted files found; expected several", checked)
	}
	issued, _, _ := store.Stats()
	if issued < int64(checked) {
		t.Fatalf("KDS issued %d keys for %d files", issued, checked)
	}
}

// TestDEKRotationByCompaction verifies that compaction re-encrypts data
// under fresh DEKs and the old DEKs are pruned.
func TestDEKRotationByCompaction(t *testing.T) {
	fs := vfs.NewMem()
	_, svc := newTestKDS(t)
	cache, err := seccache.Open(vfs.NewMem(), "cache.bin", []byte("passkey"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc, Cache: cache}
	db, err := Open("db", cfg, compactRangeOnlyOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 8000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i%2000)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	if n := db.Metrics().Compactions; n != 0 {
		t.Fatalf("%d background compactions ran; the listing below needs none", n)
	}
	// Collect the DEK-IDs of current SSTs.
	before := sstDEKIDs(t, fs)
	if len(before) == 0 {
		t.Fatal("no SSTs before compaction")
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	after := sstDEKIDs(t, fs)
	for id := range after {
		if _, old := before[id]; old {
			t.Fatalf("DEK %s survived compaction (no rotation)", id)
		}
	}
	// Old DEKs must be pruned from the secure cache.
	for id := range before {
		if _, err := cache.Get(id); err == nil {
			t.Fatalf("rotated-away DEK %s still in secure cache", id)
		}
	}
	// Data still readable under the new keys.
	if _, err := db.Get([]byte("k000042")); err != nil {
		t.Fatal(err)
	}
}

func sstDEKIDs(t *testing.T, fs *vfs.MemFS) map[kds.KeyID]bool {
	t.Helper()
	out := make(map[kds.KeyID]bool)
	entries, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name) < 4 || e.Name[len(e.Name)-4:] != ".sst" {
			continue
		}
		data, err := vfs.ReadFile(fs, "db/"+e.Name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := parseHeader(data)
		if err != nil {
			t.Fatal(err)
		}
		out[h.dekID] = true
	}
	return out
}

// TestWrongEncFSKeyFailsClosed: opening an EncFS database with the wrong
// instance DEK must fail authentication, not return garbage.
func TestWrongEncFSKeyFailsClosed(t *testing.T) {
	fs := vfs.NewMem()
	cfg := testConfig(t, ModeEncFS, fs)
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	bad, err := crypt.NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.InstanceDEK = bad
	if _, err := Open("db", cfg2, smallOpts()); !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("open with wrong instance DEK: want vfs.ErrIntegrity, got %v", err)
	}
}

// TestSecureCacheAvoidsKDS: a warm secure cache lets a restart resolve DEKs
// without KDS fetches.
func TestSecureCacheAvoidsKDS(t *testing.T) {
	fs := vfs.NewMem()
	cacheFS := vfs.NewMem()
	store := kds.NewStore(kds.Policy{MaxFetches: 1})
	svc := kds.NewLocal(store, "server-1")
	cache, err := seccache.Open(cacheFS, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc, Cache: cache}
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		db.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	_, fetchedBefore, _ := store.Stats()

	// Fresh wrapper (new process) with the reloaded secure cache.
	cache2, err := seccache.Open(cacheFS, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := Config{Mode: ModeSHIELD, FS: fs, KDS: svc, Cache: cache2}
	db2, err := Open("db", cfg2, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("k000100")); err != nil {
		t.Fatal(err)
	}
	_, fetchedAfter, _ := store.Stats()
	if fetchedAfter != fetchedBefore {
		t.Fatalf("restart hit the KDS %d times despite warm secure cache", fetchedAfter-fetchedBefore)
	}
}

// TestWALBufferRecovery: with a WAL buffer, synced writes survive; the
// encrypted WAL replays correctly after clean close.
func TestWALBufferRecovery(t *testing.T) {
	for _, bufSize := range []int{0, 512, 2048} {
		t.Run(fmt.Sprintf("buf=%d", bufSize), func(t *testing.T) {
			fs := vfs.NewMem()
			_, svc := newTestKDS(t)
			cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc, WALBufferSize: bufSize}
			opts := smallOpts()
			db, err := Open("db", cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open("db", cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			for i := 0; i < 200; i++ {
				v, err := db2.Get([]byte(fmt.Sprintf("k%04d", i)))
				if err != nil {
					t.Fatalf("buf=%d: k%04d lost: %v", bufSize, i, err)
				}
				if string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("buf=%d: wrong value %q", bufSize, v)
				}
			}
		})
	}
}

// TestChunkedParallelEncryption: multi-threaded chunk encryption must
// produce byte-identical files to inline encryption.
func TestChunkedParallelEncryption(t *testing.T) {
	key, err := crypt.NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	// One fixed nonce prefix for every run: the outputs are only comparable
	// (and only in a test may a prefix repeat) when sealed identically.
	sealer, err := crypt.NewSealer(key, []byte("fixedpfx"), []byte("hdr"))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	write := func(chunk, workers int) []byte {
		fs := vfs.NewMem()
		f, err := fs.Create("out")
		if err != nil {
			t.Fatal(err)
		}
		w := crypt.NewSealedWriter(f, sealer, chunk, workers)
		// Write in awkward sizes to exercise chunk boundaries.
		for off := 0; off < len(payload); {
			n := 3000 + off%977
			if off+n > len(payload) {
				n = len(payload) - off
			}
			if _, err := w.Write(payload[off : off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := vfs.ReadFile(fs, "out")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	ref := write(64<<10, 1)
	for _, workers := range []int{2, 4, 8} {
		for _, chunk := range []int{4 << 10, 64 << 10, 512 << 10} {
			got := write(chunk, workers)
			if !bytes.Equal(ref, got) {
				t.Fatalf("chunk=%d workers=%d produced different ciphertext", chunk, workers)
			}
		}
	}
}

// TestLeakedDEKBlastRadius: a compromised DEK decrypts exactly one file.
func TestLeakedDEKBlastRadius(t *testing.T) {
	fs := vfs.NewMem()
	_, svc := newTestKDS(t)
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc}
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		db.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 100))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Gather SST files and their headers.
	type sstFile struct {
		name string
		id   kds.KeyID
		iv   [crypt.IVSize]byte
		hdr  int
		data []byte
	}
	var files []sstFile
	entries, _ := fs.List("db")
	for _, e := range entries {
		if len(e.Name) < 4 || e.Name[len(e.Name)-4:] != ".sst" {
			continue
		}
		data, _ := vfs.ReadFile(fs, "db/"+e.Name)
		h, err := parseHeader(data)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, sstFile{name: e.Name, id: h.dekID, iv: h.iv, hdr: h.len, data: data})
	}
	if len(files) < 2 {
		t.Fatalf("need >=2 SSTs, have %d", len(files))
	}

	// "Leak" file 0's DEK by fetching it from the KDS (authorized server).
	leaked, err := svc.FetchDEK(files[0].id)
	if err != nil {
		t.Fatal(err)
	}

	decryptsValidTable := func(f sstFile, dek crypt.DEK) bool {
		// SSTs are sealed (format v3): open every record under the DEK.
		// The wrong key fails authentication rather than yielding garbage.
		sealer, err := crypt.NewSealer(dek, f.iv[:crypt.SealedNoncePrefixLen], f.data[:f.hdr])
		if err != nil {
			t.Fatal(err)
		}
		mem := vfs.NewMem()
		if err := vfs.WriteFile(mem, "t", f.data); err != nil {
			t.Fatal(err)
		}
		raw, err := mem.Open("t")
		if err != nil {
			t.Fatal(err)
		}
		r, err := crypt.NewSealedReaderAt(raw, sealer, int64(f.hdr))
		if err != nil {
			return false
		}
		plain, err := vfs.ReadAll(r)
		if err != nil {
			return false
		}
		// A correct DEK yields the table magic in the footer.
		if len(plain) < 8 {
			return false
		}
		magic := plain[len(plain)-8:]
		want := []byte{0x32, 0x4c, 0x48, 0x53, 0x42, 0x54, 0x53, 0x53} // "SSTBSHL2" LE: format 2
		return bytes.Equal(magic, want)
	}
	if !decryptsValidTable(files[0], leaked) {
		t.Fatal("leaked DEK failed to decrypt its own file")
	}
	if decryptsValidTable(files[1], leaked) {
		t.Fatal("leaked DEK decrypted a different file: blast radius not contained")
	}
}

// TestKDSOneTimeProvisioning: a foreign server can fetch a DEK-ID once;
// the second fetch is denied even though the DEK-ID is public metadata.
func TestKDSOneTimeProvisioning(t *testing.T) {
	store := kds.NewStore(kds.Policy{MaxFetches: 1})
	owner := kds.NewLocal(store, "owner")
	other := kds.NewLocal(store, "other")

	id, _, err := owner.CreateDEK()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.FetchDEK(id); err != nil {
		t.Fatalf("first foreign fetch should succeed: %v", err)
	}
	if _, err := other.FetchDEK(id); !errors.Is(err, kds.ErrAlreadyIssued) {
		t.Fatalf("second foreign fetch: want ErrAlreadyIssued, got %v", err)
	}
	// Owner re-fetch (cold restart) is always allowed.
	if _, err := owner.FetchDEK(id); err != nil {
		t.Fatalf("owner re-fetch: %v", err)
	}
}
