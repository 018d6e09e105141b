package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

func TestHeaderRoundTrip(t *testing.T) {
	iv := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	hdr := encodeHeader("dek-abc123", iv, shieldVersion)
	h, err := parseHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if h.dekID != "dek-abc123" || h.iv != iv || h.len != len(hdr) {
		t.Fatalf("parsed %+v", h)
	}
	// Extra trailing data after the header is ignored by the parser.
	h2, err := parseHeader(append(hdr, []byte("body bytes")...))
	if err != nil || h2 != h {
		t.Fatalf("parse with body: %v", err)
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0}, 64), // bad magic
		encodeHeader("dek-x", [16]byte{}, shieldVersion)[:12], // truncated
	}
	for i, c := range cases {
		if _, err := parseHeader(c); err == nil {
			t.Fatalf("case %d: garbage header accepted", i)
		}
	}
}

// TestWALDEKPrunedOnDeletion: when a WAL is deleted after flush, its DEK
// leaves the secure cache even though the engine reports no DEK-ID for WALs.
// TestTornWALHeaderReplaysEmpty: a live WAL whose header never reached
// storage whole (power loss left a few zero bytes) is an empty log, not a
// corrupt one: Open replays nothing from it and serves the store.
func TestTornWALHeaderReplaysEmpty(t *testing.T) {
	fs := vfs.NewMem()
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: newCrashKDS()}
	db, err := Open("db", cfg, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var wal string
	for _, name := range dirNames(t, fs, "db") {
		if strings.HasSuffix(name, ".log") {
			wal = "db/" + name // dirNames sorts: the last is the live one
		}
	}
	if wal == "" {
		t.Fatal("no WAL")
	}
	if err := vfs.WriteFile(fs, wal, make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	db, err = Open("db", cfg, lsm.Options{})
	if err != nil {
		t.Fatalf("Open over a torn WAL header: %v", err)
	}
	defer db.Close()
	if got, err := db.Get([]byte("k")); err != nil || string(got) != "v" {
		t.Fatalf("Get(k) = %q, %v", got, err)
	}
}

func TestWALDEKPrunedOnDeletion(t *testing.T) {
	fs := vfs.NewMem()
	_, svc := newTestKDS(t)
	cache, err := seccache.Open(vfs.NewMem(), "c.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc, Cache: cache}
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 64))
	}
	before := cache.Len()
	// Flush rotates the WAL and deletes the old one.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// The cache holds: new WAL, SST, manifest keys — but the dead WAL's key
	// must be gone. Cache can't grow by more than the files created.
	after := cache.Len()
	if after > before+2 {
		t.Fatalf("cache grew from %d to %d; dead-WAL DEK not pruned", before, after)
	}

	// No stale WAL files remain whose DEK is still cached.
	entries, _ := fs.List("db")
	logs := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name, ".log") {
			logs++
		}
	}
	if logs != 1 {
		t.Fatalf("%d WAL files after flush, want 1", logs)
	}
}

// TestWALBufferCrashLosesOnlyTail reproduces the Section 5.3 trade-off: a
// process crash loses at most the unflushed buffer, and recovery replays
// the encrypted prefix cleanly (no partial/garbled records).
func TestWALBufferCrashLosesOnlyTail(t *testing.T) {
	fs := vfs.NewMem()
	store := kds.NewStore(kds.Policy{MaxFetches: 1})
	svc := kds.NewLocal(store, "s")
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc, WALBufferSize: 4096}
	opts := smallOpts()
	db, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	const n = 300
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a process crash: abandon the DB without Close. The WAL
	// buffer's unflushed tail never reached the filesystem.
	// (The old DB object is simply dropped.)

	db2, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer db2.Close()

	// Recovered records must be an exact prefix: if k_i is present, every
	// k_j (j < i) is present with the right value.
	lastPresent := -1
	for i := 0; i < n; i++ {
		v, err := db2.Get([]byte(fmt.Sprintf("k%04d", i)))
		if errors.Is(err, lsm.ErrNotFound) {
			break
		}
		if err != nil {
			t.Fatalf("Get k%04d: %v", i, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%04d corrupted: %q", i, v)
		}
		lastPresent = i
	}
	for i := lastPresent + 1; i < n; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%04d", i))); !errors.Is(err, lsm.ErrNotFound) {
			t.Fatalf("non-prefix recovery: k%04d present after gap", i)
		}
	}
	t.Logf("recovered %d/%d records (buffered tail lost, as designed)", lastPresent+1, n)
}

// TestWALBufferSyncSurvivesCrash: an explicit synced write flushes the
// buffer, so it survives even an immediate crash.
func TestWALBufferSyncSurvivesCrash(t *testing.T) {
	fs := vfs.NewMem()
	_, svc := newTestKDS(t)
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc, WALBufferSize: 1 << 20}
	opts := smallOpts()
	db, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := lsm.NewBatch()
	b.Put([]byte("critical"), []byte("data"))
	if err := db.Write(b, true); err != nil { // sync=true
		t.Fatal(err)
	}
	// Crash without Close.
	db2, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("critical"))
	if err != nil || string(v) != "data" {
		t.Fatalf("synced write lost: %q %v", v, err)
	}
}

// TestRevokeOnDelete: with the option on, compacted-away DEKs become
// unfetchable at the KDS even for authorized servers.
func TestRevokeOnDelete(t *testing.T) {
	fs := vfs.NewMem()
	store := kds.NewStore(kds.Policy{MaxFetches: 0})
	svc := kds.NewLocal(store, "s")
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc, RevokeOnDelete: true}
	db, err := Open("db", cfg, compactRangeOnlyOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 8000; i++ {
		db.Put([]byte(fmt.Sprintf("k%06d", i%2000)), make([]byte, 100))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := sstDEKIDs(t, fs)
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	revoked := 0
	for id := range before {
		if _, err := svc.FetchDEK(id); errors.Is(err, kds.ErrKeyRevoked) {
			revoked++
		}
	}
	if revoked == 0 {
		t.Fatal("no compacted DEK was revoked at the KDS")
	}
}

// TestModeValidation covers Config error paths.
func TestModeValidation(t *testing.T) {
	if _, err := Open("db", Config{Mode: ModeSHIELD, FS: vfs.NewMem()}, smallOpts()); err == nil {
		t.Fatal("SHIELD without KDS accepted")
	}
	if _, err := Open("db", Config{Mode: ModeNone}, smallOpts()); err == nil {
		t.Fatal("missing FS accepted")
	}
	if _, err := Open("db", Config{Mode: ModeEncFS, FS: vfs.NewMem()}, smallOpts()); err == nil {
		t.Fatal("EncFS with an all-zero instance DEK accepted")
	}
	if got := ModeSHIELD.String(); got != "shield" {
		t.Fatalf("mode string %q", got)
	}
}

// TestWrapperStats: the resolution counters move as expected.
func TestWrapperStats(t *testing.T) {
	fs := vfs.NewMem()
	_, svc := newTestKDS(t)
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc}
	wrapper, err := cfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.FS = fs
	opts.Wrapper = wrapper
	db, err := lsm.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), make([]byte, 64))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st, ok := Stats(wrapper)
	if !ok {
		t.Fatal("Stats rejected a SHIELD wrapper")
	}
	if st.DEKsCreated < 3 {
		t.Fatalf("stats: %+v", st)
	}
	if _, ok := Stats(lsm.NopWrapper{}); ok {
		t.Fatal("Stats accepted a non-SHIELD wrapper")
	}
}

// TestWrapCreateFailureReleasesDEK: WrapCreate obtains the DEK first and can
// still fail after that, on the header write (ENOSPC here). It returns no
// DEK-ID then, so nothing the caller does can release the key: the wrapper
// must have undone its own registration — memory, secure cache, counters, and
// under RevokeOnDelete the KDS entry — for every kind of file it keys.
func TestWrapCreateFailureReleasesDEK(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem(), 1)
	store := kds.NewStore(kds.Policy{})
	svc := &recordingKDS{Service: kds.NewLocal(store, "s")}
	cache, err := seccache.Open(vfs.NewMem(), "c.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	wrapper, err := Config{Mode: ModeSHIELD, FS: fault, KDS: svc, Cache: cache, RevokeOnDelete: true}.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	sw := wrapper.(*shieldWrapper)
	fault.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Err: vfs.ErrNoSpace})

	for _, kind := range []lsm.FileKind{lsm.FileKindSST, lsm.FileKindWAL, lsm.FileKindManifest} {
		name := "db/000007." + kind.String()
		raw, err := fault.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		issuedBefore, _, _ := store.Stats()
		w, id, err := wrapper.WrapCreate(name, kind, raw)
		if !errors.Is(err, vfs.ErrNoSpace) || w != nil || id != "" {
			t.Fatalf("%v: WrapCreate = %v, %q, %v; want the ENOSPC of the header write", kind, w, id, err)
		}
		if issued, _, _ := store.Stats(); issued != issuedBefore+1 {
			t.Fatalf("%v: KDS issued %d DEKs for the call, want 1 (the failure must come after CreateDEK)", kind, issued-issuedBefore)
		}
		if st, _ := Stats(wrapper); st.DEKsCreated != 0 {
			t.Fatalf("%v: wrapper counts %d DEKs created, want 0", kind, st.DEKsCreated)
		}
		sw.mu.Lock()
		deks, names := len(sw.deks), len(sw.names)
		sw.mu.Unlock()
		if deks != 0 || names != 0 || cache.Len() != 0 {
			t.Fatalf("%v: %d DEKs and %d names in memory, %d in the secure cache; want none", kind, deks, names, cache.Len())
		}
	}
	// RevokeOnDelete: the three orphaned keys are dead at the KDS as well.
	if len(svc.issued) != 3 {
		t.Fatalf("KDS issued %d keys, want one per kind", len(svc.issued))
	}
	for _, id := range svc.issued {
		if _, err := svc.FetchDEK(id); !errors.Is(err, kds.ErrKeyRevoked) {
			t.Fatalf("FetchDEK(%s) = %v, want ErrKeyRevoked", id, err)
		}
	}
}

// recordingKDS remembers the ID of every DEK it hands out.
type recordingKDS struct {
	kds.Service
	issued []kds.KeyID
}

func (r *recordingKDS) CreateDEK() (kds.KeyID, crypt.DEK, error) {
	id, dek, err := r.Service.CreateDEK()
	if err == nil {
		r.issued = append(r.issued, id)
	}
	return id, dek, err
}

// readLog is a RandomAccessFile that records the offset and length of every
// read.
type readLog struct {
	vfs.RandomAccessFile
	reads [][2]int64
}

func (r *readLog) ReadAt(p []byte, off int64) (int, error) {
	r.reads = append(r.reads, [2]int64{off, int64(len(p))})
	return r.RandomAccessFile.ReadAt(p, off)
}

// longIDKDS issues every DEK under a DEK-ID of 300 bytes.
type longIDKDS struct {
	kds.Service
	ids map[kds.KeyID]kds.KeyID // long ID → the inner service's
}

func (l *longIDKDS) CreateDEK() (kds.KeyID, crypt.DEK, error) {
	id, dek, err := l.Service.CreateDEK()
	long := kds.KeyID(fmt.Sprintf("%s-%0*d", id, 300-len(id)-1, 0))
	l.ids[long] = id
	return long, dek, err
}

func (l *longIDKDS) FetchDEK(id kds.KeyID) (crypt.DEK, error) {
	return l.Service.FetchDEK(l.ids[id])
}

// TestWrapOpenReadsOnlyTheHeader: a table open reads its header in one read
// of at most headerReadSize bytes when the DEK-ID is one the KDS issues, and
// in two when a longer one makes the header outgrow that read; both open.
func TestWrapOpenReadsOnlyTheHeader(t *testing.T) {
	_, local := newTestKDS(t)
	for _, tc := range []struct {
		name      string
		svc       kds.Service
		headerLen int64
		reads     int
	}{
		{"KDS-issued DEK-ID", local, 54, 1},
		{"300-byte DEK-ID", &longIDKDS{Service: local, ids: map[kds.KeyID]kds.KeyID{}}, 326, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewMem()
			w, err := Config{Mode: ModeSHIELD, FS: fs, KDS: tc.svc}.BuildWrapper()
			if err != nil {
				t.Fatal(err)
			}
			const name = "db/000007.sst"
			raw, err := fs.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			f, _, err := w.WrapCreate(name, lsm.FileKindSST, raw)
			if err != nil {
				t.Fatal(err)
			}
			body := []byte("one sealed record")
			if err := vfs.WriteFull(f, body); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := Config{Mode: ModeSHIELD, FS: fs, KDS: tc.svc}.BuildWrapper()
			if err != nil {
				t.Fatal(err)
			}
			in, err := fs.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			log := &readLog{RandomAccessFile: in}
			opened, err := r.WrapOpen(name, lsm.FileKindSST, log)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(body))
			if _, err := opened.ReadAt(got, 0); err != nil || !bytes.Equal(got, body) {
				t.Fatalf("ReadAt = %q, %v; want %q", got, err, body)
			}
			var header [][2]int64
			for _, rd := range log.reads {
				if rd[0] < tc.headerLen {
					header = append(header, rd)
				}
			}
			if len(header) != tc.reads || header[0] != [2]int64{0, headerReadSize} {
				t.Fatalf("header reads (offset, length) %v, want %d starting with (0, %d)", header, tc.reads, headerReadSize)
			}
			if tc.reads == 2 && header[1] != [2]int64{headerReadSize, tc.headerLen - headerReadSize} {
				t.Fatalf("second header read %v, want (%d, %d)", header[1], headerReadSize, tc.headerLen-headerReadSize)
			}
		})
	}
}
