package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

// TestCiphertextTamperDetected: an attacker who flips bits in an encrypted
// SST (CTR malleability) is caught by the plaintext CRC inside the body —
// reads fail loudly rather than returning attacker-controlled data.
func TestCiphertextTamperDetected(t *testing.T) {
	fs := vfs.NewMem()
	_, svc := newTestKDS(t)
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: svc}
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Tamper with every SST: flip one ciphertext byte in the body, well
	// past the plaintext header.
	entries, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	for _, e := range entries {
		if len(e.Name) < 4 || e.Name[len(e.Name)-4:] != ".sst" {
			continue
		}
		data, err := vfs.ReadFile(fs, "db/"+e.Name)
		if err != nil {
			t.Fatal(err)
		}
		data[128] ^= 0x80
		if err := vfs.WriteFile(fs, "db/"+e.Name, data); err != nil {
			t.Fatal(err)
		}
		tampered++
	}
	if tampered == 0 {
		t.Fatal("no SSTs to tamper with")
	}

	// Evict cached blocks/readers by reopening the DB.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open("db", cfg, smallOpts())
	if err != nil {
		// Acceptable: the corruption may already be detected at open.
		return
	}
	defer db2.Close()
	sawError := false
	for i := 0; i < 3000; i += 50 {
		v, err := db2.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil && !errors.Is(err, lsm.ErrNotFound) {
			sawError = true
			continue
		}
		if err == nil && string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("tampered read returned wrong data silently: %q", v)
		}
	}
	if !sawError {
		t.Fatal("no read surfaced the tampering")
	}
}

// sealedLayout locates the records of a sealed (v3) file: the header's
// length, each record's [start, end) in the file (ciphertext and tag), and
// where the length table starts.
func sealedLayout(t *testing.T, data []byte) (hdr int, records [][2]int, table int) {
	t.Helper()
	h, err := parseHeader(data)
	if err != nil || h.version != shieldVersion3 {
		t.Fatalf("not a v3 file: %+v, %v", h, err)
	}
	n := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	table = len(data) - 4 - crypt.SealedTagSize - 4*n
	off := h.len
	for k := 0; k < n; k++ {
		end := off + int(binary.LittleEndian.Uint32(data[table+4*k:])) + crypt.SealedTagSize
		records = append(records, [2]int{off, end})
		off = end
	}
	if off != table {
		t.Fatalf("records end at %d, table at %d", off, table)
	}
	return h.len, records, table
}

// tamperStore writes two tables of the same 600 keys (the second with other
// values of the same length, so both tables' records have the same lengths)
// under cfg and closes the store; it returns the two table names.
func tamperStore(t *testing.T, cfg Config) (first, second string) {
	t.Helper()
	opts := lsm.Options{L0CompactionTrigger: 100}
	db, err := Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < 600; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("value-%d-%060d", gen, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var tables []string
	for name := range snapshotDir(t, cfg.FS, "db") {
		if strings.HasSuffix(name, ".sst") {
			tables = append(tables, "db/"+name)
		}
	}
	sort.Strings(tables)
	if len(tables) != 2 {
		t.Fatalf("tables %v, want two", tables)
	}
	return tables[0], tables[1]
}

// readEveryKey opens the store and reads all 600 keys, by Get and by scan:
// the first error, or nil. A value that is neither generation's is fatal:
// a tampered file must never yield bytes.
func readEveryKey(t *testing.T, cfg Config) error {
	t.Helper()
	db, err := Open("db", cfg, lsm.Options{L0CompactionTrigger: 100})
	if err != nil {
		return err
	}
	defer db.Close()
	for i := 0; i < 600; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil {
			return err
		}
		if string(v) != fmt.Sprintf("value-1-%060d", i) {
			t.Fatalf("Get(k%05d) = %q from a tampered store", i, v)
		}
	}
	it, err := db.NewIter()
	if err != nil {
		return err
	}
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
	}
	return it.Err()
}

// TestSealedTableAttacksDetected applies each attack on a sealed (v3) table
// body to one live table of a store and reopens it: every one fails with an
// error wrapping vfs.ErrIntegrity (the truncation error included), at the
// open or at the first read that touches the bytes, and never yields a
// value. The splice runs under the instance key, so that the spliced record
// is under the same DEK and only its file's header and nonce prefix tell
// them apart. A v3 header rewritten to v2 is refused by the serving path
// as one to migrate, and Migrate, which reads v2 bodies, fails it.
func TestSealedTableAttacksDetected(t *testing.T) {
	attacks := []struct {
		name   string
		attack func(t *testing.T, data, other []byte) []byte
	}{
		{"flipped byte", func(t *testing.T, data, _ []byte) []byte {
			_, recs, _ := sealedLayout(t, data)
			data[recs[0][0]+20] ^= 0x01
			return data
		}},
		{"records swapped", func(t *testing.T, data, _ []byte) []byte {
			_, recs, _ := sealedLayout(t, data)
			a, b := recs[0], recs[1]
			out := append([]byte(nil), data[:a[0]]...)
			out = append(out, data[b[0]:b[1]]...)
			out = append(out, data[a[0]:a[1]]...)
			return append(out, data[b[1]:]...)
		}},
		{"record spliced from another file", func(t *testing.T, data, other []byte) []byte {
			_, recs, _ := sealedLayout(t, data)
			_, orecs, _ := sealedLayout(t, other)
			for k := range recs {
				if k < len(orecs) && recs[k][1]-recs[k][0] == orecs[k][1]-orecs[k][0] {
					copy(data[recs[k][0]:recs[k][1]], other[orecs[k][0]:orecs[k][1]])
					return data
				}
			}
			t.Fatal("no record of the same length in the other table")
			return nil
		}},
		{"cut at a record boundary", func(t *testing.T, data, _ []byte) []byte {
			_, _, table := sealedLayout(t, data)
			return data[:table]
		}},
		{"cut before the last record", func(t *testing.T, data, _ []byte) []byte {
			_, recs, _ := sealedLayout(t, data)
			return data[:recs[len(recs)-1][0]]
		}},
		{"length table tampered", func(t *testing.T, data, _ []byte) []byte {
			_, _, table := sealedLayout(t, data)
			// Move a byte from record 0 to record 1: the lengths still sum
			// to the body, so only the table's tag can tell.
			binary.LittleEndian.PutUint32(data[table:], binary.LittleEndian.Uint32(data[table:])-1)
			binary.LittleEndian.PutUint32(data[table+4:], binary.LittleEndian.Uint32(data[table+4:])+1)
			return data
		}},
		{"record count tampered", func(t *testing.T, data, _ []byte) []byte {
			n := binary.LittleEndian.Uint32(data[len(data)-4:])
			binary.LittleEndian.PutUint32(data[len(data)-4:], n-1)
			return data
		}},
	}
	for _, a := range attacks {
		t.Run(a.name, func(t *testing.T) {
			cfg := testConfig(t, ModeEncFS, vfs.NewMem())
			first, second := tamperStore(t, cfg)
			data, err := vfs.ReadFile(cfg.FS, second)
			if err != nil {
				t.Fatal(err)
			}
			other, err := vfs.ReadFile(cfg.FS, first)
			if err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(cfg.FS, second, a.attack(t, data, other)); err != nil {
				t.Fatal(err)
			}
			if err := readEveryKey(t, cfg); !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("%s: %v, want an error wrapping vfs.ErrIntegrity", a.name, err)
			}
		})
	}

	t.Run("header downgraded to v2", func(t *testing.T) {
		cfg := Config{Mode: ModeSHIELD, FS: vfs.NewMem(), KDS: kds.NewLocal(kds.NewStore(kds.Policy{}), "server-1")}
		_, second := tamperStore(t, cfg)
		data, err := vfs.ReadFile(cfg.FS, second)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(data[4:8], shieldVersion2)
		if err := vfs.WriteFile(cfg.FS, second, data); err != nil {
			t.Fatal(err)
		}
		if err := readEveryKey(t, cfg); !errors.Is(err, lsm.ErrNeedsMigrate) && !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("serving open: %v, want lsm.ErrNeedsMigrate or an integrity error", err)
		}
		if err := Migrate("db", cfg, lsm.Options{L0CompactionTrigger: 100}); !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("Migrate: %v, want an integrity error", err)
		}
	})
}
