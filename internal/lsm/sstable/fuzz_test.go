package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"testing"

	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

// bytesFile is a table held in memory.
type bytesFile struct{ *bytes.Reader }

func (f bytesFile) Size() (int64, error) { return f.Reader.Size(), nil }
func (bytesFile) Close() error           { return nil }

// smallTable returns the bytes of a valid table of a few entries in several
// blocks: a fuzz seed small enough to mutate byte by byte.
func smallTable(tb testing.TB) []byte {
	tb.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("t.sst")
	if err != nil {
		tb.Fatal(err)
	}
	w := NewWriter(f, WriterOptions{BlockSize: 128})
	for i := 0; i < 12; i++ {
		kind := base.KindSet
		if i%5 == 4 {
			kind = base.KindDelete
		}
		ikey := base.MakeInternalKey([]byte(fmt.Sprintf("key-%06d", i)), base.SeqNum(100-i), kind)
		if err := w.Add(ikey, []byte(strings.Repeat(string(rune('a'+i)), 20))); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		tb.Fatal(err)
	}
	data, err := vfs.ReadFile(fs, "t.sst")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// readTable opens in as a table, scans it whole and looks up one key.
func readTable(in []byte) error {
	r, err := NewReader(bytesFile{bytes.NewReader(in)}, ReaderOptions{})
	if err != nil {
		return err
	}
	it := r.NewIter()
	for ok := it.First(); ok; ok = it.Next() {
	}
	if err := it.Err(); err != nil {
		return err
	}
	if _, _, err := r.Get([]byte("key-000003"), base.MaxSeqNum); err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	return nil
}

// resealed returns a copy of in with the checksum of every block it names —
// the footer's metadata blocks, then the data blocks the index names, read
// as the footer's magic says without the reader's checks — recomputed, so
// that mutated block contents reach the decoders behind the checksum instead
// of all failing it.
func resealed(in []byte) []byte {
	out := bytes.Clone(in)
	if len(out) < footerLen {
		return out
	}
	seal := func(h blockHandle) []byte {
		if h.length < 1+blockTrailerLen || h.length > uint64(len(out)) || h.offset > uint64(len(out))-h.length {
			return nil
		}
		b := out[h.offset : h.offset+h.length]
		body := b[:len(b)-blockTrailerLen]
		binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, castagnoli))
		return body
	}
	footer := out[len(out)-footerLen:]
	for _, at := range []int{16, 32, 0} { // the index last, to walk it
		body := seal(blockHandle{binary.LittleEndian.Uint64(footer[at:]), binary.LittleEndian.Uint64(footer[at+8:])})
		if at != 0 || len(body) == 0 || body[len(body)-1] != rawBlock {
			continue
		}
		data := body[:len(body)-1]
		if binary.LittleEndian.Uint64(footer[48:]) == tableMagicV2 {
			if len(data) < indexCountLen {
				continue
			}
			n := int(binary.LittleEndian.Uint32(data[len(data)-indexCountLen:]))
			handles := data[:len(data)-indexCountLen]
			for i := 1; i <= n && i*indexHandleLen <= len(handles); i++ {
				h := handles[len(handles)-i*indexHandleLen:]
				seal(blockHandle{binary.LittleEndian.Uint64(h), binary.LittleEndian.Uint64(h[8:])})
			}
			continue
		}
		var it blockIter
		it.init(data, false)
		for it.next() {
			if h, err := decodeHandle(it.val); err == nil {
				seal(h)
			}
		}
	}
	return out
}

// FuzzTableOpen: on any bytes, opening a table, scanning it and a Get
// succeed or fail with an error wrapping ErrCorruption — the class scrub and
// best-effort recovery quarantine on — and never panic; what they allocate
// follows the input's length, not the lengths it declares. Each input runs
// as given and resealed, so block contents the checksum would reject are
// decoded too. The seeds are a format-2 table this build writes and the
// format-1 fixture, so both decoders stay under fuzz.
func FuzzTableOpen(f *testing.F) {
	f.Add(smallTable(f))
	v1, err := os.ReadFile("testdata/parent_prefix_filter.sst")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, table := range [][]byte{in, resealed(in)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := readTable(table)
			runtime.ReadMemStats(&after)
			if n, budget := after.TotalAlloc-before.TotalAlloc, uint64(32*len(table))+64<<10; n > budget {
				t.Fatalf("%d bytes allocated for %d of input", n, len(table))
			}
			if err != nil && !errors.Is(err, ErrCorruption) {
				t.Fatalf("error %v does not wrap ErrCorruption", err)
			}
		}
	})
}
