package core

import (
	"errors"
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

// testdata/parent_shield and testdata/parent_encfs are stores written by the
// build before this one (commit 7645441, the last with
// lsm.Options.PrefixExtractor), both with BlockSize 1024 and a 512-byte WAL
// buffer, closed without a final flush: 300 keys compacted down to L1, then
// every third key rewritten and flushed, every 30th from 1 deleted and
// flushed, every 50th from 2 rewritten into the WAL only. The SHIELD store was
// written with PrefixExtractor = first 3 bytes, so its two L0 tables carry the
// prefix filter block this build neither writes nor reads; its DEKs are in
// kds.state, sealed under "fixture-master-key", issued to server "fixture".
// The EncFS store is sealed under the instance DEK "fixture-inst-dek".

func parentStoreModel() map[string]string {
	key := func(i int) string { return fmt.Sprintf("u%02d:%04d", i%7, i) }
	val := func(i, gen int) string {
		return fmt.Sprintf("value-%04d-gen%d-%s", i, gen, "abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz")
	}
	m := map[string]string{}
	for i := 0; i < 300; i++ {
		m[key(i)] = val(i, 0)
	}
	for i := 0; i < 300; i += 3 {
		m[key(i)] = val(i, 1)
	}
	for i := 1; i < 300; i += 30 {
		delete(m, key(i))
	}
	for i := 2; i < 300; i += 50 {
		m[key(i)] = val(i, 2)
	}
	return m
}

// loadFixture copies the files of on-disk directory osDir into dir of mem.
func loadFixture(t *testing.T, mem vfs.FS, osDir, dir string) {
	t.Helper()
	osfs := vfs.NewOS()
	if err := mem.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := osfs.List(osDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := vfs.ReadFile(osfs, path.Join(osDir, e.Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(mem, path.Join(dir, e.Name), data); err != nil {
			t.Fatal(err)
		}
	}
}

// checkTablesFormatV2 fails unless every table in dir, unsealed by cfg's
// wrapper, ends in the SST format-2 magic ("SSTBSHL2" little-endian).
func checkTablesFormatV2(t *testing.T, cfg Config, dir string) {
	t.Helper()
	wrapper, err := cfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := cfg.FS.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, e := range entries {
		if path.Ext(e.Name) != ".sst" {
			continue
		}
		tables++
		name := path.Join(dir, e.Name)
		raw, err := cfg.FS.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := wrapper.WrapOpen(name, lsm.FileKindSST, raw)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		magic := make([]byte, 8)
		if _, err := f.ReadAt(magic, size-8); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if string(magic) != "2LHSBTSS" {
			t.Fatalf("%s ends in magic %q, not format 2's", name, magic)
		}
	}
	if tables == 0 {
		t.Fatalf("no tables in %s", dir)
	}
}

// checkCurrentHeaders fails unless every file in dir carries the header this
// build writes for its kind: SHLD v3 over a table or a sealed CURRENT, SHLD
// v1 over a WAL or MANIFEST stream, and a SHIELD store's CURRENT in the
// clear.
func checkCurrentHeaders(t *testing.T, cfg Config, dir string) {
	t.Helper()
	entries, err := cfg.FS.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := vfs.ReadFile(cfg.FS, path.Join(dir, e.Name))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name == "CURRENT" && cfg.Mode == ModeSHIELD {
			if !strings.HasPrefix(string(data), "MANIFEST-") {
				t.Fatalf("%s: SHIELD CURRENT is not plaintext: %q", e.Name, data)
			}
			continue
		}
		want := uint32(shieldVersion)
		if e.Name == "CURRENT" || path.Ext(e.Name) == ".sst" {
			want = shieldVersion3
		}
		if h, err := parseHeader(data); err != nil || h.version != want {
			t.Fatalf("%s: header %+v, %v; want SHLD v%d", e.Name, h, err, want)
		}
	}
}

// TestParentStoresOpen: the two stores written by the parent build, in SST
// format 1, are refused, then migrated, then served. The SHIELD store (with
// prefix filter blocks) has v2 (per-4-KiB-block) table bodies and the EncFS
// store the EncFS header of older builds, so the serving path refuses both,
// open and scrub alike, with lsm.ErrNeedsMigrate and nothing written. After
// Migrate — whose open runs under ParanoidChecks, every block authenticated
// and every tag-chain digest matched against the manifest — both read back
// whole by Get and by scan on the serving path, every file carries a
// current header, every table the format-2 magic, and the scrub is clean.
func TestParentStoresOpen(t *testing.T) {
	want := parentStoreModel()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	configs := map[string]func(t *testing.T, mem vfs.FS) Config{
		"shield": func(t *testing.T, mem vfs.FS) Config {
			loadFixture(t, mem, "testdata/parent_shield", ".")
			loadFixture(t, mem, "testdata/parent_shield/db", "db")
			store, err := kds.OpenPersistentStore(mem, "kds.state", []byte("fixture-master-key"), kds.Policy{})
			if err != nil {
				t.Fatal(err)
			}
			return Config{Mode: ModeSHIELD, FS: mem, KDS: kds.NewLocal(store, "fixture"), WALBufferSize: 512}
		},
		"encfs": func(t *testing.T, mem vfs.FS) Config {
			loadFixture(t, mem, "testdata/parent_encfs/db", "db")
			var dek crypt.DEK
			copy(dek[:], "fixture-inst-dek")
			return Config{Mode: ModeEncFS, FS: mem, InstanceDEK: dek, WALBufferSize: 512}
		},
	}
	for name, build := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := build(t, vfs.NewMem())
			opts := lsm.Options{ParanoidChecks: true, L0CompactionTrigger: 100}
			openAndRead := func() *lsm.DB {
				t.Helper()
				db, err := Open("db", cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range want {
					if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
						t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
					}
				}
				it, err := db.NewIter()
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for ok := it.First(); ok; ok = it.Next() {
					if n >= len(keys) || string(it.Key()) != keys[n] || string(it.Value()) != want[keys[n]] {
						t.Fatalf("scan entry %d = %q, not in the model at that place", n, it.Key())
					}
					n++
				}
				if err := it.Err(); err != nil || n != len(keys) {
					t.Fatalf("scan returned %d entries, %v; want %d", n, err, len(keys))
				}
				it.Close()
				return db
			}
			scrub := func(minTables int) {
				t.Helper()
				report, err := Scrub("db", cfg, lsm.Options{}, lsm.ScrubOptions{})
				if err != nil || !report.Clean() || report.SSTsChecked < minTables {
					t.Fatalf("scrub: %v\n%s", err, report)
				}
				for p, v := range report.Verdicts {
					if v != lsm.VerdictOK {
						t.Fatalf("scrub verdict for %s = %s", p, v)
					}
				}
			}

			before := storeFiles(t, cfg.FS)
			if _, err := Open("db", cfg, opts); !errors.Is(err, lsm.ErrNeedsMigrate) {
				t.Fatalf("serving open of the parent store: %v, want lsm.ErrNeedsMigrate", err)
			}
			if _, err := Scrub("db", cfg, lsm.Options{}, lsm.ScrubOptions{}); !errors.Is(err, lsm.ErrNeedsMigrate) {
				t.Fatalf("scrub of the parent store: %v, want lsm.ErrNeedsMigrate", err)
			}
			if after := storeFiles(t, cfg.FS); !maps.Equal(before, after) {
				t.Fatal("the refused open or scrub changed the store's files")
			}

			if err := Migrate("db", cfg, opts); err != nil {
				t.Fatal(err)
			}
			checkTablesFormatV2(t, cfg, "db")
			checkCurrentHeaders(t, cfg, "db")
			db := openAndRead()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			scrub(1)
		})
	}
}
