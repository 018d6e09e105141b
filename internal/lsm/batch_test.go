package lsm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"shield/internal/lsm/base"
)

// TestBatchEncodeDecodeProperty: arbitrary record sequences survive the
// WAL wire encoding, with sequence numbers assigned consecutively.
func TestBatchEncodeDecodeProperty(t *testing.T) {
	type rec struct {
		Key    []byte
		Value  []byte
		Delete bool
	}
	f := func(recs []rec, seqSeed uint16) bool {
		b := NewBatch()
		for _, r := range recs {
			if r.Delete {
				b.Delete(r.Key)
			} else {
				b.Put(r.Key, r.Value)
			}
		}
		if b.Count() != uint32(len(recs)) {
			return false
		}
		startSeq := base.SeqNum(seqSeed) + 1
		b.setSeq(startSeq)

		i := 0
		err := decodeBatch(b.data, func(seq base.SeqNum, kind base.Kind, key, value []byte) error {
			r := recs[i]
			if seq != startSeq+base.SeqNum(i) {
				return fmt.Errorf("seq %d at record %d", seq, i)
			}
			wantKind := base.KindSet
			if r.Delete {
				wantKind = base.KindDelete
			}
			if kind != wantKind || !bytes.Equal(key, r.Key) {
				return fmt.Errorf("record %d mismatch", i)
			}
			if !r.Delete && !bytes.Equal(value, r.Value) {
				return fmt.Errorf("value %d mismatch", i)
			}
			i++
			return nil
		})
		return err == nil && i == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDecodeRejectsCorruption: truncated or trailing-garbage encodings
// must error, never mis-parse.
func TestBatchDecodeRejectsCorruption(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("key-one"), []byte("value-one"))
	b.Put([]byte("key-two"), []byte("value-two"))
	b.setSeq(7)
	nop := func(base.SeqNum, base.Kind, []byte, []byte) error { return nil }

	if err := decodeBatch(b.data, nop); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	// Too short for a header.
	if err := decodeBatch(b.data[:8], nop); err == nil {
		t.Fatal("short batch accepted")
	}
	// Truncated mid-record.
	for _, cut := range []int{batchHeaderLen + 1, len(b.data) - 1, len(b.data) - 5} {
		if err := decodeBatch(b.data[:cut], nop); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage.
	if err := decodeBatch(append(append([]byte{}, b.data...), 0xde, 0xad), nop); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Corrupted count.
	bad := append([]byte{}, b.data...)
	bad[8] = 200 // claims 200 records
	if err := decodeBatch(bad, nop); err == nil {
		t.Fatal("inflated count accepted")
	}
}

func TestBatchReset(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("k"), []byte("v"))
	b.Reset()
	if !b.Empty() || b.Len() != batchHeaderLen {
		t.Fatalf("reset: count=%d len=%d", b.Count(), b.Len())
	}
	b.Put([]byte("k2"), []byte("v2"))
	if b.Count() != 1 {
		t.Fatalf("count after reuse: %d", b.Count())
	}
}
