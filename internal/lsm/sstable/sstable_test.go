package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"shield/internal/cache"
	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

type kv struct {
	key   []byte // internal key
	value []byte
}

// buildTable writes entries (must be pre-sorted) and opens a reader.
func buildTable(t *testing.T, entries []kv, opts WriterOptions, ropts ReaderOptions) *Reader {
	t.Helper()
	return buildTableWith(t, entries, func(f vfs.WritableFile) *Writer { return NewWriter(f, opts) }, ropts)
}

// withoutFilter is how a test builds a table with no filter block: no
// writer option makes one, but the reader accepts it.
func withoutFilter(w *Writer) *Writer {
	w.filter = nil
	return w
}

func buildTableWith(t *testing.T, entries []kv, newWriter func(vfs.WritableFile) *Writer, ropts ReaderOptions) *Reader {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := newWriter(f)
	for _, e := range entries {
		if err := w.Add(e.key, e.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	raf, err := fs.Open("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(raf, ropts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func makeEntries(n int, seq base.SeqNum) []kv {
	entries := make([]kv, 0, n)
	for i := 0; i < n; i++ {
		uk := []byte(fmt.Sprintf("key-%06d", i))
		entries = append(entries, kv{
			key:   base.MakeInternalKey(uk, seq, base.KindSet),
			value: []byte(fmt.Sprintf("value-%06d", i)),
		})
	}
	return entries
}

func TestGetAllKeys(t *testing.T) {
	entries := makeEntries(5000, 9)
	r := buildTable(t, entries, WriterOptions{}, ReaderOptions{})
	for i := 0; i < 5000; i += 13 {
		uk := []byte(fmt.Sprintf("key-%06d", i))
		v, kind, err := r.Get(uk, 100)
		if err != nil {
			t.Fatalf("Get(%s): %v", uk, err)
		}
		if kind != base.KindSet {
			t.Fatalf("kind %v", kind)
		}
		if want := fmt.Sprintf("value-%06d", i); string(v) != want {
			t.Fatalf("Get(%s) = %q", uk, v)
		}
	}
	if _, _, err := r.Get([]byte("nope"), 100); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestSnapshotVisibility(t *testing.T) {
	// Two versions of one key at seq 5 and 10.
	uk := []byte("k")
	entries := []kv{
		{key: base.MakeInternalKey(uk, 10, base.KindSet), value: []byte("new")},
		{key: base.MakeInternalKey(uk, 5, base.KindSet), value: []byte("old")},
	}
	r := buildTable(t, entries, WriterOptions{}, ReaderOptions{})

	v, _, err := r.Get(uk, 20)
	if err != nil || string(v) != "new" {
		t.Fatalf("seq 20: %q %v", v, err)
	}
	v, _, err = r.Get(uk, 7)
	if err != nil || string(v) != "old" {
		t.Fatalf("seq 7: %q %v", v, err)
	}
	if _, _, err := r.Get(uk, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("seq 3 should see nothing: %v", err)
	}
}

func TestTombstoneReturnedNotHidden(t *testing.T) {
	uk := []byte("k")
	entries := []kv{
		{key: base.MakeInternalKey(uk, 10, base.KindDelete)},
		{key: base.MakeInternalKey(uk, 5, base.KindSet), value: []byte("old")},
	}
	r := buildTable(t, entries, WriterOptions{}, ReaderOptions{})
	v, kind, err := r.Get(uk, 20)
	if err != nil {
		t.Fatal(err)
	}
	if kind != base.KindDelete || v != nil {
		t.Fatalf("tombstone not surfaced: kind=%v v=%q", kind, v)
	}
}

func TestIteratorFullScanAndSeek(t *testing.T) {
	entries := makeEntries(3000, 1)
	r := buildTable(t, entries, WriterOptions{BlockSize: 512}, ReaderOptions{})

	it := r.NewIter()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if !bytes.Equal(it.Key(), entries[i].key) {
			t.Fatalf("scan position %d mismatch", i)
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(entries) {
		t.Fatalf("scanned %d of %d", i, len(entries))
	}

	// Seek to each 97th key.
	for j := 0; j < 3000; j += 97 {
		target := base.SearchKey([]byte(fmt.Sprintf("key-%06d", j)), base.MaxSeqNum)
		if !it.SeekGE(target) {
			t.Fatalf("SeekGE(%d) invalid", j)
		}
		if !bytes.Equal(base.UserKey(it.Key()), []byte(fmt.Sprintf("key-%06d", j))) {
			t.Fatalf("SeekGE(%d) landed on %s", j, base.UserKey(it.Key()))
		}
	}
	// Seek past the end.
	if it.SeekGE(base.SearchKey([]byte("zzz"), base.MaxSeqNum)) {
		t.Fatal("SeekGE past end returned an entry")
	}
}

func TestBloomFilterSkipsMissing(t *testing.T) {
	entries := makeEntries(10_000, 1)
	c := cache.New(1 << 20)
	r := buildTable(t, entries, WriterOptions{}, ReaderOptions{Cache: c, FileNum: 1})

	// Misses should mostly be answered by the filter without block reads.
	for i := 0; i < 2000; i++ {
		uk := []byte(fmt.Sprintf("absent-%06d", i))
		if _, _, err := r.Get(uk, 100); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s): %v", uk, err)
		}
	}
	_, misses := c.Stats()
	// Without a filter every one of the 2000 misses would read a block;
	// with 10 bits/key the false-positive rate is ~1%.
	if misses > 100 {
		t.Fatalf("bloom filter ineffective: %d block-cache misses for absent keys", misses)
	}
}

func TestBloomDisabled(t *testing.T) {
	entries := makeEntries(100, 1)
	r := buildTableWith(t, entries, func(f vfs.WritableFile) *Writer {
		return withoutFilter(NewWriter(f, WriterOptions{}))
	}, ReaderOptions{})
	if _, _, err := r.Get([]byte("key-000050"), 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get([]byte("absent"), 100); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	if err := w.Add(base.MakeInternalKey([]byte("b"), 1, base.KindSet), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(base.MakeInternalKey([]byte("a"), 1, base.KindSet), nil); err == nil {
		t.Fatal("out-of-order key accepted")
	}
}

func TestProperties(t *testing.T) {
	entries := makeEntries(500, 1)
	entries = append(entries, kv{key: base.MakeInternalKey([]byte("zzz"), 1, base.KindDelete)})
	r := buildTable(t, entries, WriterOptions{}, ReaderOptions{})
	p := r.Properties()
	if p.NumEntries != 501 || p.NumDeletes != 1 {
		t.Fatalf("props: %+v", p)
	}
	if p.DataBlocks == 0 {
		t.Fatalf("no data blocks recorded: %+v", p)
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	w.Add(base.MakeInternalKey([]byte("a"), 1, base.KindSet), []byte("v"))
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	good, _ := vfs.ReadFile(fs, "t.sst")
	footer := len(good) - footerLen
	for name, clobber := range map[string]func(data []byte){
		"magic": func(data []byte) { data[len(data)-1] ^= 0xff },
		// A handle that does not fit the file must be refused before anything
		// is sized from it.
		"index length past the file":   func(data []byte) { binary.LittleEndian.PutUint64(data[footer+8:], 1<<40) },
		"filter offset past the file":  func(data []byte) { binary.LittleEndian.PutUint64(data[footer+16:], uint64(len(data))) },
		"props offset+length overflow": func(data []byte) { binary.LittleEndian.PutUint64(data[footer+32:], ^uint64(0)-2) },
	} {
		data := append([]byte(nil), good...)
		clobber(data)
		vfs.WriteFile(fs, "t.sst", data)
		raf, _ := fs.Open("t.sst")
		if _, err := NewReader(raf, ReaderOptions{}); !errors.Is(err, ErrCorruption) {
			t.Errorf("%s: NewReader err = %v, want ErrCorruption", name, err)
		}
		raf.Close()
	}
}

func TestBlockCacheServesRepeatReads(t *testing.T) {
	entries := makeEntries(2000, 1)
	c := cache.New(4 << 20)
	r := buildTable(t, entries, WriterOptions{}, ReaderOptions{Cache: c, FileNum: 7})
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 2000; i += 100 {
			uk := []byte(fmt.Sprintf("key-%06d", i))
			if _, _, err := r.Get(uk, 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, _ := c.Stats()
	if hits == 0 {
		t.Fatal("block cache never hit")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	model := make(map[string]string)
	var entries []kv
	for i := 0; i < 3000; i++ {
		uk := fmt.Sprintf("k%06d", i)
		v := fmt.Sprintf("v%d", rng.Int63())
		model[uk] = v
		entries = append(entries, kv{
			key:   base.MakeInternalKey([]byte(uk), base.SeqNum(i+1), base.KindSet),
			value: []byte(v),
		})
	}
	r := buildTable(t, entries, WriterOptions{BlockSize: 1024}, ReaderOptions{})
	for uk, want := range model {
		v, _, err := r.Get([]byte(uk), base.MaxSeqNum)
		if err != nil {
			t.Fatalf("Get(%s): %v", uk, err)
		}
		if string(v) != want {
			t.Fatalf("Get(%s) = %q want %q", uk, v, want)
		}
	}
}
