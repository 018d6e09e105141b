package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"strings"
	"testing"
	"time"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// snapshotDir returns the contents of every file directly in dir.
func snapshotDir(t *testing.T, fs vfs.FS, dir string) map[string][]byte {
	t.Helper()
	entries, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := vfs.ReadFile(fs, path.Join(dir, e.Name))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name] = data
	}
	return files
}

// checkUnchanged fails unless dir holds exactly the files of want, byte for
// byte, and no lost/ directory.
func checkUnchanged(t *testing.T, fs vfs.FS, dir string, want map[string][]byte, what string) {
	t.Helper()
	got := snapshotDir(t, fs, dir)
	if len(got) != len(want) {
		t.Fatalf("%s: %d files in %s, want %d", what, len(got), dir, len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("%s changed %s", what, name)
		}
	}
	if _, err := fs.Stat(path.Join(dir, "lost")); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("%s created %s/lost (%v)", what, dir, err)
	}
}

// checkNotCorruption fails unless err wraps lsm.ErrNeedsMigrate and none of
// the classes recovery and scrub drop, quarantine or skip a file over.
func checkNotCorruption(t *testing.T, err error, what string) {
	t.Helper()
	if !errors.Is(err, lsm.ErrNeedsMigrate) {
		t.Fatalf("%s: %v, want lsm.ErrNeedsMigrate", what, err)
	}
	for _, class := range []error{lsm.ErrCorruption, sstable.ErrCorruption, vfs.ErrIntegrity, vfs.ErrNotFound, io.EOF, io.ErrUnexpectedEOF} {
		if errors.Is(err, class) {
			t.Fatalf("%s: %v also wraps %v", what, err, class)
		}
	}
}

// downgradeSealed rewrites a sealed (v3) file into the v1 layout an older
// build would have written: its header becomes version 1 with IV = nonce
// prefix ‖ 0 ‖ 2, GCM's counter for record 0, and its body the records'
// ciphertext with tags, length table and count dropped, so the CTR reader
// decrypts record 0 — all of a CURRENT, the first data block of a table —
// to its plaintext (later records, sealed under other nonces, decrypt to
// noise). flip then edits that ciphertext, seeing the plaintext only to
// find offsets.
func downgradeSealed(t *testing.T, data, plain []byte, flip func(body, plain []byte)) []byte {
	t.Helper()
	h, err := parseHeader(data)
	if err != nil || h.version != shieldVersion3 {
		t.Fatalf("not a sealed file: %+v, %v", h, err)
	}
	sealed := data[h.len:]
	n := int(binary.LittleEndian.Uint32(sealed[len(sealed)-4:]))
	table := sealed[len(sealed)-4-crypt.SealedTagSize-4*n:]
	var body []byte
	for k := 0; k < n; k++ {
		l := int(binary.LittleEndian.Uint32(table[4*k:]))
		body = append(body, sealed[:l]...)
		sealed = sealed[l+crypt.SealedTagSize:]
	}
	if len(body) != len(plain) {
		t.Fatalf("sealed body of %d bytes, plaintext %d", len(body), len(plain))
	}
	if flip != nil {
		flip(body, plain)
	}
	var iv [crypt.IVSize]byte
	copy(iv[:], h.iv[:crypt.SealedNoncePrefixLen])
	iv[crypt.IVSize-1] = 2
	return append(encodeHeader(h.dekID, iv, shieldVersion), body...)
}

// flipValue XORs the ciphertext of from into to inside the first data
// block, and the block's CRC-32C by the matching delta: CTR and CRC-32C are
// both linear, so the block still checks.
func flipValue(t *testing.T, from, to string) func(body, plain []byte) {
	return func(body, plain []byte) {
		pos := bytes.Index(plain, []byte(from))
		if pos < 0 {
			t.Fatalf("%q not in the table", from)
		}
		castagnoli := crc32.MakeTable(crc32.Castagnoli)
		end := -1 // the first data block starts at 0; its CRC follows it
		for l := pos + len(from); l+4 <= len(plain); l++ {
			if crc32.Checksum(plain[:l], castagnoli) == binary.LittleEndian.Uint32(plain[l:]) {
				end = l
				break
			}
		}
		if end < 0 {
			t.Fatal("no block checksum after the value")
		}
		delta := make([]byte, end)
		for i := range from {
			delta[pos+i] = from[i] ^ to[i]
			body[pos+i] ^= delta[pos+i]
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(delta, castagnoli)^crc32.Checksum(make([]byte, end), castagnoli))
		for i := range crc {
			body[end+i] ^= crc[i]
		}
	}
}

// readPlain reads a sealed file's plaintext through the serving wrapper.
func readPlain(t *testing.T, cfg Config, name string, kind lsm.FileKind) []byte {
	t.Helper()
	w, err := cfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	f, err := openVia(cfg.FS, w, name, kind)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plain, err := vfs.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

// TestSealedHeaderDowngradeRefused: a storage adversary rewrites a sealed
// table's header to v1 with the IV that makes the CTR reader decrypt its
// first record's GCM ciphertext, drops tags and table, and flips a value
// and its CRC. The serving path refuses the file as one to migrate instead
// of returning the flipped value, and Migrate's paranoid open fails it as
// corrupt or tampered with every file unchanged: the table's later records,
// sealed under other nonces, read as noise, and its manifest anchors a
// digest a v1 file cannot produce. A downgraded CURRENT under the instance
// policy fares the same: Migrate's wrapper knows no build wrote it.
func TestSealedHeaderDowngradeRefused(t *testing.T) {
	var dek crypt.DEK
	copy(dek[:], "downgrade-dek-16")
	cases := []struct {
		name string
		cfg  Config
		file string // what is downgraded
	}{
		{"shield", Config{Mode: ModeSHIELD, KDS: newCrashKDS()}, ".sst"},
		{"encfs", Config{Mode: ModeEncFS, InstanceDEK: dek}, ".sst"},
		{"encfs-current", Config{Mode: ModeEncFS, InstanceDEK: dek}, "CURRENT"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.FS = vfs.NewMem()
			db, err := Open("db", cfg, lsm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("k1"), []byte("value-AAAA")); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			var target string
			for name := range snapshotDir(t, cfg.FS, "db") {
				if strings.HasSuffix(name, c.file) {
					target = path.Join("db", name)
				}
			}
			data, err := vfs.ReadFile(cfg.FS, target)
			if err != nil {
				t.Fatal(err)
			}
			kind, flip := lsm.FileKindSST, flipValue(t, "AAAA", "BBBB")
			if c.file == "CURRENT" {
				kind, flip = lsm.FileKindCurrent, nil
			}
			plain := readPlain(t, cfg, target, kind)
			if err := vfs.WriteFile(cfg.FS, target, downgradeSealed(t, data, plain, flip)); err != nil {
				t.Fatal(err)
			}
			before := snapshotDir(t, cfg.FS, "db")

			db, err = Open("db", cfg, lsm.Options{})
			if err == nil {
				var got []byte
				got, err = db.Get([]byte("k1"))
				db.Close()
				if err == nil {
					t.Fatalf("Get(k1) = %q from a downgraded %s", got, c.file)
				}
			}
			checkNotCorruption(t, err, "serving open of a downgraded "+c.file)
			t.Logf("serving open: %v", err)
			checkUnchanged(t, cfg.FS, "db", before, "serving open")

			err = Migrate("db", cfg, lsm.Options{})
			var ie *lsm.IntegrityError
			var ce *lsm.CorruptionError
			if !(errors.As(err, &ie) && ie.Path == target || errors.As(err, &ce) && ce.Path == target) {
				t.Fatalf("Migrate of a downgraded %s: %v, want an IntegrityError or CorruptionError for %s", c.file, err, target)
			}
			t.Logf("Migrate: %v", err)
			checkUnchanged(t, cfg.FS, "db", before, "Migrate")
		})
	}
}

// v1Store writes n keys into a SHIELD store in dir through v1SSTWrapper, so
// its tables are in the v1 layout of builds before sealing, and closes it.
// With settle, CompactRange first moves every table into the bottom level.
// It returns the serving config of the store.
func v1Store(t *testing.T, fs vfs.FS, svc kds.Service, opts lsm.Options, n int, settle bool) Config {
	t.Helper()
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc}
	wrapper, err := cfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	opts.FS = fs
	// It reads its own tables back (CompactRange) as only Migrate can.
	opts.Wrapper = v1SSTWrapper{FileWrapper: migrateWrapper{wrapper.(*shieldWrapper)}, kds: svc}
	db, err := lsm.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("old-%04d", i)), v1Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if settle {
		err = db.CompactRange()
	} else {
		err = db.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if v1, v3 := countFormats(t, fs, "db"); v1 == 0 || v3 != 0 {
		t.Fatalf("legacy store has %d v1 / %d v3 SSTs, want all v1", v1, v3)
	}
	return cfg
}

func v1Value(i int) []byte {
	return []byte(fmt.Sprintf("old-value-%04d-%s", i, strings.Repeat("x", 40)))
}

// checkV1StoreMigrated fails unless the serving path opens the store, reads
// every one of its n keys, and finds every table in the v3 layout.
func checkV1StoreMigrated(t *testing.T, cfg Config, opts lsm.Options, n int) {
	t.Helper()
	if v1, v3 := countFormats(t, cfg.FS, "db"); v1 != 0 || v3 == 0 {
		t.Fatalf("migrated store has %d v1 / %d v3 SSTs, want all v3", v1, v3)
	}
	db, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatalf("serving open of the migrated store: %v", err)
	}
	defer db.Close()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("old-%04d", i)
		if got, err := db.Get([]byte(k)); err != nil || !bytes.Equal(got, v1Value(i)) {
			t.Fatalf("Get(%s) = %q, %v", k, got, err)
		}
	}
}

// TestNeedsMigrateIsNotCorruption: the parent EncFS store and a store of v1
// tables are refused by every serving entry point with lsm.ErrNeedsMigrate,
// which is no corruption class: Open with and without BestEffortRecovery
// and a repairing Scrub all fail, and leave every file as it was, with no
// lost/ directory. A keyless scrub reads nothing it would need a key for,
// and still skips a table under the EncFS header as encrypted.
func TestNeedsMigrateIsNotCorruption(t *testing.T) {
	checkNotCorruption(t, lsm.ErrNeedsMigrate, "the sentinel")

	var dek crypt.DEK
	copy(dek[:], "fixture-inst-dek")
	stores := map[string]func(fs vfs.FS) Config{
		"parent_encfs": func(fs vfs.FS) Config {
			loadFixture(t, fs, "testdata/parent_encfs/db", "db")
			return Config{Mode: ModeEncFS, FS: fs, InstanceDEK: dek, WALBufferSize: 512}
		},
		"v1-sst": func(fs vfs.FS) Config {
			return v1Store(t, fs, newCrashKDS(), lsm.Options{MemtableSize: 16 << 10}, 300, false)
		},
	}
	for name, build := range stores {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			cfg := build(fs)
			before := snapshotDir(t, fs, "db")
			for _, best := range []bool{false, true} {
				_, err := Open("db", cfg, lsm.Options{BestEffortRecovery: best})
				checkNotCorruption(t, err, fmt.Sprintf("Open (BestEffortRecovery %v)", best))
				checkUnchanged(t, fs, "db", before, "Open")
			}
			_, err := Scrub("db", cfg, lsm.Options{}, lsm.ScrubOptions{})
			checkNotCorruption(t, err, "keyed Scrub")
			checkUnchanged(t, fs, "db", before, "keyed Scrub")

			// Keyless, the store's own encrypted CURRENT or MANIFEST stops
			// the scrub before any table.
			if _, err := Scrub("db", Config{FS: fs}, lsm.Options{}, lsm.ScrubOptions{}); err == nil {
				t.Fatal("keyless Scrub read an encrypted store")
			}
			checkUnchanged(t, fs, "db", before, "keyless Scrub")
		})
	}

	t.Run("encfs-wal", func(t *testing.T) {
		fs := vfs.NewMem()
		cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: newCrashKDS()}
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
		legacy, err := vfs.ReadFile(vfs.NewOS(), "testdata/parent_encfs/db/001543.log")
		if err != nil {
			t.Fatal(err)
		}
		var wal string
		for name := range snapshotDir(t, fs, "db") {
			if strings.HasSuffix(name, ".log") && path.Join("db", name) > wal {
				wal = path.Join("db", name)
			}
		}
		if err := vfs.WriteFile(fs, wal, legacy); err != nil {
			t.Fatal(err)
		}
		before := snapshotDir(t, fs, "db")
		_, err = Scrub("db", cfg, lsm.Options{}, lsm.ScrubOptions{})
		checkNotCorruption(t, err, "keyed Scrub of a store with an EncFS WAL")
		checkUnchanged(t, fs, "db", before, "keyed Scrub")
		_, err = Open("db", cfg, lsm.Options{})
		checkNotCorruption(t, err, "Open of a store with an EncFS WAL")
		checkUnchanged(t, fs, "db", before, "Open")
	})

	t.Run("keyless-encfs-table", func(t *testing.T) {
		fs := vfs.NewMem()
		cfg := Config{FS: fs}
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
		legacy, err := vfs.ReadFile(vfs.NewOS(), "testdata/parent_encfs/db/001544.sst")
		if err != nil {
			t.Fatal(err)
		}
		var table string
		for name := range snapshotDir(t, fs, "db") {
			if strings.HasSuffix(name, ".sst") {
				table = path.Join("db", name)
			}
		}
		if err := vfs.WriteFile(fs, table, legacy); err != nil {
			t.Fatal(err)
		}
		before := snapshotDir(t, fs, "db")
		rep, err := Scrub("db", cfg, lsm.Options{}, lsm.ScrubOptions{})
		if err != nil || rep.Skipped != 1 || rep.Verdict(table) != lsm.VerdictUndecryptable {
			t.Fatalf("keyless scrub of an EncFS table: %v\n%s", err, rep)
		}
		checkUnchanged(t, fs, "db", before, "keyless Scrub")
	})
}

// TestMigrateBottomLevelStore: a store whose v1 tables all sit in the
// bottom level, where a plain CompactRange leaves them, is fully rewritten
// by Migrate.
func TestMigrateBottomLevelStore(t *testing.T) {
	fs := vfs.NewMem()
	svc := newCrashKDS()
	opts := lsm.Options{MemtableSize: 16 << 10, TargetFileSize: 8 << 10}
	cfg := v1Store(t, fs, svc, opts, 600, true)

	// The premise: CompactRange alone rewrites none of them.
	wrapper, err := cfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	mopts := opts
	mopts.FS = fs
	mopts.Wrapper = migrateWrapper{wrapper.(*shieldWrapper)}
	db, err := lsm.Open("db", mopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if v1, _ := countFormats(t, fs, "db"); v1 < 2 {
		t.Fatalf("%d v1 tables left in the bottom level, want several", v1)
	}

	if _, err := Open("db", cfg, opts); !errors.Is(err, lsm.ErrNeedsMigrate) {
		t.Fatalf("serving open: %v, want lsm.ErrNeedsMigrate", err)
	}
	if err := Migrate("db", cfg, opts); err != nil {
		t.Fatal(err)
	}
	checkV1StoreMigrated(t, cfg, opts, 600)
}

// TestNeedsMigrateRefusedBeforeQuarantine: a store of v1 bottom-level
// tables under a corrupt sealed L0 table, the shape of a store an older
// build wrote and a later one flushed into. Open under BestEffortRecovery
// and a repairing Scrub judge the tables in level order, so the corrupt L0
// table comes first; both must still fail with lsm.ErrNeedsMigrate alone,
// every file as it was. Migrate fails on the corrupt table and changes
// nothing; under BestEffortRecovery it quarantines that table and converts
// the rest.
func TestNeedsMigrateRefusedBeforeQuarantine(t *testing.T) {
	fs := vfs.NewMem()
	opts := lsm.Options{MemtableSize: 16 << 10, TargetFileSize: 8 << 10, L0CompactionTrigger: 100}
	const n = 600
	cfg := v1Store(t, fs, newCrashKDS(), opts, n, true)

	// Flush one sealed table into L0 through a build that reads the v1 ones.
	wrapper, err := cfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	mopts := opts
	mopts.FS = fs
	mopts.Wrapper = migrateWrapper{wrapper.(*shieldWrapper)}
	db, err := lsm.Open("db", mopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("new-0000"), []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var sealed string
	for name, data := range snapshotDir(t, fs, "db") {
		if h, err := parseHeader(data); err == nil && h.version == shieldVersion3 && strings.HasSuffix(name, ".sst") {
			if sealed != "" {
				t.Fatalf("two sealed tables: %s, %s", sealed, name)
			}
			sealed = path.Join("db", name)
		}
	}
	if sealed == "" {
		t.Fatal("no sealed table")
	}
	// Flip a byte in the table's last seal block, which holds the footer:
	// even a plain open's check finds it.
	data, err := vfs.ReadFile(fs, sealed)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-crypt.SealedTagSize-3] ^= 0x40
	if err := vfs.WriteFile(fs, sealed, data); err != nil {
		t.Fatal(err)
	}

	before := snapshotDir(t, fs, "db")
	_, err = Open("db", cfg, lsm.Options{BestEffortRecovery: true})
	checkNotCorruption(t, err, "Open (BestEffortRecovery)")
	checkUnchanged(t, fs, "db", before, "Open (BestEffortRecovery)")
	_, err = Scrub("db", cfg, lsm.Options{}, lsm.ScrubOptions{})
	checkNotCorruption(t, err, "repairing Scrub")
	checkUnchanged(t, fs, "db", before, "repairing Scrub")

	if err := Migrate("db", cfg, opts); !errors.Is(err, lsm.ErrCorruption) {
		t.Fatalf("Migrate over a corrupt table: %v, want lsm.ErrCorruption", err)
	}
	checkUnchanged(t, fs, "db", before, "Migrate")

	best := opts
	best.BestEffortRecovery = true
	if err := Migrate("db", cfg, best); err != nil {
		t.Fatalf("Migrate (BestEffortRecovery): %v", err)
	}
	if lost := dirNames(t, fs, "db/lost"); len(lost) != 1 || lost[0] != path.Base(sealed) {
		t.Fatalf("quarantined %v, want [%s]", lost, path.Base(sealed))
	}
	checkV1StoreMigrated(t, cfg, opts, n)
}

// copyDir copies the files directly in dir from src to dst.
func copyDir(t *testing.T, src, dst vfs.FS, dir string) {
	t.Helper()
	if err := dst.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	for name, data := range snapshotDir(t, src, dir) {
		if err := vfs.WriteFile(dst, path.Join(dir, name), data); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMigrateInterrupted: a table write failing halfway through Migrate's
// CompactRange fails it and leaves a store that a second Migrate converts.
func TestMigrateInterrupted(t *testing.T) {
	svc := newCrashKDS()
	opts := lsm.Options{MemtableSize: 16 << 10, TargetFileSize: 8 << 10}
	ffs := vfs.NewFault(vfs.NewMem(), 1)
	cfg := v1Store(t, ffs, svc, opts, 600, true)

	// Count the table writes of a whole migrate on a copy.
	dry := vfs.NewFault(vfs.NewMem(), 1)
	copyDir(t, ffs, dry, "db")
	dryCfg := cfg
	dryCfg.FS = dry
	counter := dry.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: ".sst", Stall: time.Nanosecond})
	if err := Migrate("db", dryCfg, opts); err != nil {
		t.Fatal(err)
	}
	writes := dry.Fired(counter)
	t.Logf("failing table write %d of %d", writes/2+1, writes)

	rule := ffs.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: ".sst", After: writes / 2, Count: 1})
	if err := Migrate("db", cfg, opts); err == nil || ffs.Fired(rule) != 1 {
		t.Fatalf("Migrate with table write %d of %d failing: %v", writes/2+1, writes, err)
	}
	ffs.ClearRules()
	// The re-put keys were flushed into a v3 table and the compaction
	// failed: both layouts are on disk.
	if v1, v3 := countFormats(t, ffs, "db"); v1 == 0 || v3 == 0 {
		t.Fatalf("interrupted migrate left %d v1 / %d v3 SSTs, want both", v1, v3)
	}
	if err := Migrate("db", cfg, opts); err != nil {
		t.Fatalf("rerun of the interrupted migrate: %v", err)
	}
	checkV1StoreMigrated(t, cfg, opts, 600)
}
