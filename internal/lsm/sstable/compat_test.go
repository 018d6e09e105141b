package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

// TestParentPrefixFilterTableOpens reads testdata/parent_prefix_filter.sst, a
// raw table written by the last build whose Writer had a PrefixExtractor
// (WriterOptions{BlockSize: 1024, BloomBitsPerKey: 10, PrefixExtractor: first
// 3 bytes}): 210 entries "u<i%7>:<i>" at sequence i+1, every 50th a
// tombstone, with the prefix bloom block between filter and index and its
// handle in the properties JSON. This build neither writes nor reads that
// block; the table must still open, and Get, a full scan and VerifyChecksums
// must agree with the key list.
func TestParentPrefixFilterTableOpens(t *testing.T) {
	data, err := os.ReadFile("testdata/parent_prefix_filter.sst")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"prefix_filter_offset"`)) {
		t.Fatal("fixture carries no prefix filter handle; it no longer tests what it is for")
	}
	fs := vfs.NewMem()
	if err := vfs.WriteFile(fs, "t.sst", data); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(f, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type entry struct {
		key  string
		seq  base.SeqNum
		kind base.Kind
		val  string
	}
	var want []entry
	for p := 0; p < 7; p++ {
		for i := p; i < 210; i += 7 {
			e := entry{key: fmt.Sprintf("u%02d:%04d", i%7, i), seq: base.SeqNum(i + 1), kind: base.KindSet}
			if i%50 == 0 {
				e.kind = base.KindDelete
			} else {
				e.val = fmt.Sprintf("value-%04d-gen0-%s", i, "abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz")
			}
			want = append(want, e)
		}
	}
	if got := r.Properties().NumEntries; got != uint64(len(want)) {
		t.Fatalf("properties count %d entries, want %d", got, len(want))
	}

	it := r.NewIter()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if n >= len(want) {
			t.Fatalf("scan returned more than %d entries", len(want))
		}
		e := want[n]
		seq, kind := base.DecodeTrailer(it.Key())
		if string(base.UserKey(it.Key())) != e.key || seq != e.seq || kind != e.kind || string(it.Value()) != e.val {
			t.Fatalf("entry %d = %q seq %d kind %d, want %q seq %d kind %d", n, base.UserKey(it.Key()), seq, kind, e.key, e.seq, e.kind)
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("scan returned %d entries, want %d", n, len(want))
	}

	for _, e := range want {
		v, kind, err := r.Get([]byte(e.key), base.MaxSeqNum)
		if err != nil || kind != e.kind || string(v) != e.val {
			t.Fatalf("Get(%q) = %q kind %d err %v, want %q kind %d", e.key, v, kind, err, e.val, e.kind)
		}
	}
	if _, _, err := r.Get([]byte("u03:9999"), base.MaxSeqNum); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of an absent key: %v, want ErrNotFound", err)
	}
	if blocks, err := r.VerifyChecksums(); err != nil || uint64(blocks) != r.Properties().DataBlocks {
		t.Fatalf("VerifyChecksums = %d blocks, %v; want %d, nil", blocks, err, r.Properties().DataBlocks)
	}
}
