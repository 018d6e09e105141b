package lsm

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"shield/internal/lsm/base"
	"shield/internal/lsm/wal"
	"shield/internal/vfs"
)

// fuzzSeedStore builds a small store with flushed and compacted tables and
// an unflushed WAL tail, and returns the raw bytes of its live WAL and the
// records of its live manifest: the two inputs the recovery pass decodes.
func fuzzSeedStore(f *testing.F) (walBytes []byte, manifestRecords [][]byte) {
	f.Helper()
	fs := vfs.NewMem()
	opts := testOptions(fs)
	opts.MemtableSize = 4 << 10
	opts.MaxManifestFileSize = 1 << 20
	db, err := Open("db", opts)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i%150)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.CompactRange(); err != nil {
		f.Fatal(err)
	}
	b := NewBatch()
	b.Put([]byte("tail"), []byte("unflushed"))
	b.Delete([]byte("k0001"))
	if err := db.Write(b, true); err != nil {
		f.Fatal(err)
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	entries, err := fs.List("db")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		name, full := e.Name, "db/"+e.Name
		switch {
		case strings.HasSuffix(name, ".log"):
			if walBytes, err = vfs.ReadFile(fs, full); err != nil {
				f.Fatal(err)
			}
		case strings.HasPrefix(name, "MANIFEST-"):
			raw, err := fs.OpenSequential(full)
			if err != nil {
				f.Fatal(err)
			}
			r := wal.NewReader(raw)
			for {
				rec, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					f.Fatal(err)
				}
				manifestRecords = append(manifestRecords, append([]byte(nil), rec...))
			}
			r.Close()
		}
	}
	if len(walBytes) == 0 || len(manifestRecords) < 2 {
		f.Fatalf("seed store has a %d-byte WAL and %d manifest records", len(walBytes), len(manifestRecords))
	}
	return walBytes, manifestRecords
}

// writeRecords writes recs to name as WAL-framed records.
func writeRecords(t *testing.T, fs vfs.FS, name string, recs ...[]byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(f)
	for _, rec := range recs {
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzWALRecords: recovery's WAL reader (wal.Reader + decodeBatch, the
// readWAL both Open and Scrub use) over bytes the storage side controls.
// With framed unset the input is the whole log file, so the record framing
// is under attack; with framed set it is one record's payload under a valid
// checksum, so the batch decoder is. Either way the read ends cleanly, at a
// torn tail classed as wal.ErrCorrupt, or with a *CorruptionError; it never
// panics, and every entry it hands back lies inside the input.
func FuzzWALRecords(f *testing.F) {
	walBytes, _ := fuzzSeedStore(f)
	f.Add(walBytes, false)
	f.Add(walBytes[:len(walBytes)/2], false)
	f.Add([]byte{}, false)
	b := NewBatch()
	b.Put([]byte("k"), []byte("v"))
	b.Delete([]byte("gone"))
	f.Add(b.data, true)
	f.Add([]byte("garbage-not-a-batch"), true)
	f.Add(append(append([]byte(nil), b.data[:batchHeaderLen]...), 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), true)
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		fs := vfs.NewMem()
		name := walFileName("db", 1)
		if framed {
			writeRecords(t, fs, name, data)
		} else if err := vfs.WriteFile(fs, name, data); err != nil {
			t.Fatal(err)
		}
		var bytesSeen int
		res, err := readWAL(&Options{FS: fs, Wrapper: NopWrapper{}}, name, func(_ base.SeqNum, _ base.Kind, key, value []byte) error {
			bytesSeen += len(key) + len(value)
			return nil
		})
		var ce *CorruptionError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("untyped error %v", err)
		}
		if res.torn != nil && !errors.Is(res.torn, wal.ErrCorrupt) {
			t.Fatalf("torn tail %v is not wal.ErrCorrupt", res.torn)
		}
		if bytesSeen > len(data) {
			t.Fatalf("decoded %d key and value bytes from a %d-byte input", bytesSeen, len(data))
		}
	})
}

// FuzzVersionEdit: the manifest replay of recovery's load step
// (manifest.DecodeVersionEdit + Version.Apply) over an edit the storage side
// controls, appended to a real manifest's records under a valid checksum.
// Strict replay (Open) succeeds or fails with a *CorruptionError; salvage
// replay (Scrub) never fails and marks the manifest corrupt exactly when
// strict replay refused it; the replayed version can be checked for
// ordering. Nothing panics.
func FuzzVersionEdit(f *testing.F) {
	_, recs := fuzzSeedStore(f)
	for _, rec := range recs {
		f.Add(rec)
	}
	f.Add([]byte(`{"added":[{"level":1,"meta":{"file_num":9}},{"level":1,"meta":{"file_num":10}}]}`))
	f.Add([]byte(`{"deleted":[{"level":9,"file_num":1}]}`))
	f.Add([]byte(`{"deleted":[{"level":0,"file_num":424242}]}`))
	f.Add([]byte(`{"log_number":18446744073709551615,"next_file_number":0}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, edit []byte) {
		fs := vfs.NewMem()
		name := manifestFileName("db", 1)
		writeRecords(t, fs, name, append(append([][]byte(nil), recs...), edit)...)
		st, err := loadManifest(fs, NopWrapper{}, name, false)
		var ce *CorruptionError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("untyped error %v", err)
		}
		salvaged, serr := loadManifest(fs, NopWrapper{}, name, true)
		if serr != nil {
			t.Fatalf("salvage replay failed: %v", serr)
		}
		if salvaged.corrupt != (err != nil) {
			t.Fatalf("salvage marked corrupt=%v, strict replay error %v", salvaged.corrupt, err)
		}
		if st != nil {
			_ = st.ver.CheckOrdering() // an overlap is the caller's verdict; a panic is the finding
		}
	})
}
