//go:build !race

package crypt

import "testing"

// TestRecordAppendAllocs: once the writer's buffer has grown, appending a
// record and syncing it allocates nothing: one key schedule per file, the
// nonce and AAD updated in place, the record sealed into the reused buffer.
func TestRecordAppendAllocs(t *testing.T) {
	w, err := NewRecordWriter(discardFile{}, testRecordKey, testRecordMagic, testRecordExtra)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 60)
	appendOne := func() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendOne() // grows the buffer past the header
	if n := mallocs(func() {
		for i := 0; i < 1000; i++ {
			appendOne()
		}
	}); n != 0 {
		t.Errorf("%d allocations over 1000 Append+Sync calls, want 0", n)
	}
}
