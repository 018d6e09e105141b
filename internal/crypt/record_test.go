package crypt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"shield/internal/vfs"
)

const testRecordMagic = 0x54534554 // "TEST"

var (
	testRecordKey   = DEK{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	testRecordExtra = []byte("salt-salt-salt-!")
)

// bufFile is a WritableFile over a bytes.Buffer.
type bufFile struct{ bytes.Buffer }

func (*bufFile) Sync() error  { return nil }
func (*bufFile) Close() error { return nil }

// writeRecordLog seals recs into a new log under the test key and prefix.
func writeRecordLog(t testing.TB, prefix string, recs ...[]byte) []byte {
	t.Helper()
	var f bufFile
	var p [recordPrefixLen]byte
	copy(p[:], prefix)
	w, err := newRecordWriter(&f, testRecordKey, testRecordMagic, testRecordExtra, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	return f.Bytes()
}

// readRecordLog returns the records of data and the error that ended them
// (io.EOF for a clean end).
func readRecordLog(data []byte) ([][]byte, error) {
	r, err := NewRecordReader(data, testRecordMagic, len(testRecordExtra), func(extra []byte) (DEK, error) {
		if !bytes.Equal(extra, testRecordExtra) {
			return DEK{}, fmt.Errorf("extra %q", extra)
		}
		return testRecordKey, nil
	})
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for {
		rec, err := r.Next()
		if err != nil {
			return out, err
		}
		out = append(out, append([]byte(nil), rec...))
	}
}

func testRecords() [][]byte {
	return [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xAB}, 300), []byte("last record")}
}

// checkPrefix fails unless got is a prefix of want.
func checkPrefix(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: %d records read from a log of %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d = %q, want %q", what, i, got[i], want[i])
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := testRecords()
	got, err := readRecordLog(writeRecordLog(t, "prefix01", recs...))
	if err != io.EOF || len(got) != len(recs) {
		t.Fatalf("read %d records, %v; want %d, EOF", len(got), err, len(recs))
	}
	checkPrefix(t, "round trip", got, recs)

	// Appends that each flush read back the same as one batch.
	var f bufFile
	w, err := NewRecordWriter(&f, testRecordKey, testRecordMagic, testRecordExtra)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := readRecordLog(f.Bytes()); err != io.EOF || len(got) != len(recs) {
		t.Fatalf("record-by-record log: %d records, %v", len(got), err)
	}
}

// TestRecordEveryByteFlipFailsClosed: changing any one byte of the header
// or of any record either stops the read at a typed error (the header's
// checks, or an integrity error from the record it hit) or, never, yields
// a record that was not written. No single flip reads as a torn tail or as
// a clean end: every record ends in a non-zero byte, which none of the
// masks turns to zero.
func TestRecordEveryByteFlipFailsClosed(t *testing.T) {
	recs := testRecords()
	data := writeRecordLog(t, "prefix01", recs...)
	hdrLen := 8 + len(testRecordExtra) + recordPrefixLen
	for i := range data {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			bad := append([]byte(nil), data...)
			bad[i] ^= mask
			got, err := readRecordLog(bad)
			what := fmt.Sprintf("byte %d ^ %#x", i, mask)
			checkPrefix(t, what, got, recs)
			switch {
			case i < 4:
				if !errors.Is(err, ErrStateCorrupt) {
					t.Fatalf("%s (magic): %v, want ErrStateCorrupt", what, err)
				}
			case i < 8:
				if !errors.Is(err, ErrStateVersion) {
					t.Fatalf("%s (version): %v, want ErrStateVersion", what, err)
				}
			case i < 8+len(testRecordExtra):
				// The test key function refuses other extra bytes.
				if err == nil || err == io.EOF || errors.Is(err, ErrTornRecord) {
					t.Fatalf("%s (extra): %v", what, err)
				}
			case !errors.Is(err, vfs.ErrIntegrity):
				t.Fatalf("%s (offset %d past the header): %v, want an integrity error", what, i-hdrLen, err)
			}
		}
	}
}

// TestRecordTornTail: a log cut anywhere reads as the records it still
// holds whole, then io.EOF at a record boundary and ErrTornRecord inside a
// record. A file extended before its data landed reads as torn too: zero
// bytes after the last whole record, and a cut inside a record padded with
// zeros to the end of that record or of the log.
func TestRecordTornTail(t *testing.T) {
	recs := testRecords()
	data := writeRecordLog(t, "prefix01", recs...)
	hdrLen := 8 + len(testRecordExtra) + recordPrefixLen
	ends := map[int]int{hdrLen: 0} // record boundary offset -> records before it
	off := hdrLen
	for i, rec := range recs {
		off += recordLenSize + len(rec) + recordTagSize + 1
		ends[off] = i + 1
	}
	next := func(cut int) int { // the first record boundary after cut
		for end := cut + 1; ; end++ {
			if _, ok := ends[end]; ok {
				return end
			}
		}
	}
	for cut := hdrLen; cut <= len(data); cut++ {
		got, err := readRecordLog(data[:cut])
		checkPrefix(t, fmt.Sprintf("cut at %d", cut), got, recs)
		if n, boundary := ends[cut]; boundary {
			if err != io.EOF || len(got) != n {
				t.Fatalf("cut at boundary %d: %d records, %v; want %d, EOF", cut, len(got), err, n)
			}
		} else if !errors.Is(err, ErrTornRecord) {
			t.Fatalf("cut at %d inside a record: %v, want ErrTornRecord", cut, err)
		} else {
			n := len(got)
			for _, size := range []int{next(cut), len(data)} {
				padded := append(append([]byte(nil), data[:cut]...), make([]byte, size-cut)...)
				got, err := readRecordLog(padded)
				checkPrefix(t, fmt.Sprintf("cut at %d, zeros to %d", cut, size), got, recs)
				if len(got) != n || !errors.Is(err, ErrTornRecord) {
					t.Fatalf("cut at %d, zeros to %d: %d records, %v; want %d, ErrTornRecord", cut, size, len(got), err, n)
				}
			}
		}
		if n, boundary := ends[cut]; boundary {
			for _, zeros := range []int{1, 4, 40} {
				padded := append(append([]byte(nil), data[:cut]...), make([]byte, zeros)...)
				got, err := readRecordLog(padded)
				if len(got) != n || !errors.Is(err, ErrTornRecord) {
					t.Fatalf("boundary %d + %d zeros: %d records, %v; want %d, ErrTornRecord", cut, zeros, len(got), err, n)
				}
			}
		}
	}
	if _, err := readRecordLog(data[:hdrLen-1]); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("truncated header: %v, want ErrStateCorrupt", err)
	}
}

// TestRecordSwapAndSplice: records cannot be reordered, and a record sealed
// under the same key in another log does not verify in this one.
func TestRecordSwapAndSplice(t *testing.T) {
	recs := [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")}
	data := writeRecordLog(t, "prefix01", recs...)
	other := writeRecordLog(t, "prefix02", recs...)
	hdrLen := 8 + len(testRecordExtra) + recordPrefixLen
	size := recordLenSize + 4 + recordTagSize + 1
	rec := func(b []byte, i int) []byte { return b[hdrLen+i*size : hdrLen+(i+1)*size] }

	swapped := append([]byte(nil), data[:hdrLen]...)
	swapped = append(append(append(swapped, rec(data, 0)...), rec(data, 2)...), rec(data, 1)...)
	got, err := readRecordLog(swapped)
	checkPrefix(t, "swapped", got, recs)
	if len(got) != 1 || !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("swapped records 1 and 2: %d records, %v", len(got), err)
	}

	spliced := append([]byte(nil), data...)
	copy(rec(spliced, 1), rec(other, 1))
	got, err = readRecordLog(spliced)
	checkPrefix(t, "spliced", got, recs)
	if len(got) != 1 || !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("record 1 from another log: %d records, %v", len(got), err)
	}

	// Dropping a record from the middle breaks the chain too.
	dropped := append(append(append([]byte(nil), data[:hdrLen]...), rec(data, 0)...), rec(data, 2)...)
	if got, err := readRecordLog(dropped); len(got) != 1 || !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("record 1 dropped: %d records, %v", len(got), err)
	}
}

// noSpaceFile fails every write.
type noSpaceFile struct{ bufFile }

func (*noSpaceFile) Write([]byte) (int, error) { return 0, vfs.ErrNoSpace }

// TestRecordWriterFailureIsSticky: once a write has failed the file may end
// in a torn record, so the writer refuses to append after it.
func TestRecordWriterFailureIsSticky(t *testing.T) {
	w, err := NewRecordWriter(&noSpaceFile{}, testRecordKey, testRecordMagic, testRecordExtra)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("Sync on a failing file: %v", err)
	}
	if err := w.Append([]byte("y")); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("Append after a failed write: %v", err)
	}
}

// TestRecordCounterNeverWraps: the writer refuses the record whose counter
// would wrap the 32-bit nonce counter, and a record longer than the length
// word can say.
func TestRecordCounterNeverWraps(t *testing.T) {
	var f bufFile
	w, err := NewRecordWriter(&f, testRecordKey, testRecordMagic, testRecordExtra)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(make([]byte, RecordMaxLen+1)); err == nil {
		t.Fatal("record past RecordMaxLen accepted")
	}
	w.chain.next = 1<<32 - 1
	if err := w.Append([]byte("last")); err != nil {
		t.Fatalf("record 2^32-1: %v", err)
	}
	if err := w.Append([]byte("wrapped")); !errors.Is(err, ErrRecordLogFull) {
		t.Fatalf("record 2^32: %v, want ErrRecordLogFull", err)
	}
}

// FuzzRecordLog: on any bytes, a reader under the key of a known log
// returns a prefix of that log's records and then ends in io.EOF,
// ErrTornRecord, a header error (ErrStateCorrupt, ErrStateVersion) or an
// integrity error. It never panics and never returns a record that was not
// written.
func FuzzRecordLog(f *testing.F) {
	recs := testRecords()
	data := writeRecordLog(f, "fuzzpref", recs...)
	f.Add(data)
	f.Add(data[:len(data)-7])
	f.Add(append(append([]byte(nil), data...), 0, 0, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := readRecordLog(in)
		checkPrefix(t, "fuzzed log", got, recs)
		switch {
		case err == io.EOF, errors.Is(err, ErrTornRecord), errors.Is(err, vfs.ErrIntegrity),
			errors.Is(err, ErrStateCorrupt), errors.Is(err, ErrStateVersion):
		case len(in) >= 8+len(testRecordExtra) && !bytes.Equal(in[8:8+len(testRecordExtra)], testRecordExtra):
			// The key function refused the header's extra bytes.
		default:
			t.Fatalf("untyped error %v", err)
		}
		if bytes.Equal(in, data) && (err != io.EOF || len(got) != len(recs)) {
			t.Fatalf("the log as written: %d records, %v", len(got), err)
		}
	})
}
