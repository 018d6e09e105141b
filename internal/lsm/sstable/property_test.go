package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"shield/internal/lsm/base"
)

// randomEntries returns a sorted entry set drawn to stress delta encoding:
// user keys are one of a few prefixes — none, one byte, and 54, 60 and 100
// bytes of one letter — followed by up to five bytes over a two-letter
// alphabet, so neighbours share long prefixes, a key is often a prefix of
// the next one, and the empty user key turns up. The 54-byte prefix puts
// internal keys on both sides of a block iterator's 64-byte inline key
// buffer, sharing a prefix across the move to the heap. Each user key has
// one to three versions, some of them tombstones.
func randomEntries(rng *rand.Rand) []kv {
	prefixes := []string{"", "p", strings.Repeat("x", 60), strings.Repeat("y", 100), strings.Repeat("z", 54)}
	users := map[string]bool{}
	for n := rng.Intn(250); len(users) < n+1; { // of 315 possible
		suffix := make([]byte, rng.Intn(6))
		for i := range suffix {
			suffix[i] = "ab"[rng.Intn(2)]
		}
		users[prefixes[rng.Intn(len(prefixes))]+string(suffix)] = true
	}
	var entries []kv
	seq := base.SeqNum(1)
	sorted := make([]string, 0, len(users))
	for uk := range users {
		sorted = append(sorted, uk)
	}
	slices.Sort(sorted)
	for _, uk := range sorted {
		versions := 1 + rng.Intn(3)
		for v := 0; v < versions; v++ {
			// Newest first: the internal order is user key ascending, then
			// sequence descending.
			s := seq + base.SeqNum(versions-v)
			kind, value := base.KindSet, []byte(fmt.Sprintf("%s@%d", uk, s))
			if rng.Intn(4) == 0 {
				kind, value = base.KindDelete, nil
			}
			entries = append(entries, kv{key: base.MakeInternalKey([]byte(uk), s, kind), value: value})
		}
		seq += base.SeqNum(versions)
	}
	return entries
}

// TestWriterReaderRandomKeySets: tables over random key sets, in one-entry,
// small and default blocks, read back exactly what was written — a full
// scan, a SeekGE to every key, a Get of every user key at the newest
// snapshot and at one below each version, and a Get of keys absent between
// them.
func TestWriterReaderRandomKeySets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		entries := randomEntries(rng)
		blockSize := []int{1, 96, 4096}[round%3]
		t.Run(fmt.Sprintf("round %d block %d", round, blockSize), func(t *testing.T) {
			r := buildTable(t, entries, WriterOptions{BlockSize: blockSize}, ReaderOptions{})
			if blockSize == 1 && r.Properties().DataBlocks != uint64(len(entries)) {
				t.Fatalf("%d data blocks for %d entries, want one each", r.Properties().DataBlocks, len(entries))
			}

			it := r.NewIter()
			n := 0
			for ok := it.First(); ok; ok = it.Next() {
				if n >= len(entries) || !bytes.Equal(it.Key(), entries[n].key) || !bytes.Equal(it.Value(), entries[n].value) {
					t.Fatalf("scan entry %d = %q, want %q", n, it.Key(), entries[min(n, len(entries)-1)].key)
				}
				n++
			}
			if it.Err() != nil || n != len(entries) {
				t.Fatalf("scan: %d entries, %v; want %d", n, it.Err(), len(entries))
			}
			for i, e := range entries {
				if !it.SeekGE(e.key) || !bytes.Equal(it.Key(), e.key) {
					t.Fatalf("SeekGE(entry %d %q) landed on %q", i, e.key, it.Key())
				}
			}

			for i, e := range entries {
				uk := base.UserKey(e.key)
				seq, _ := base.DecodeTrailer(e.key)
				newest := i == 0 || !bytes.Equal(base.UserKey(entries[i-1].key), uk)
				if newest {
					checkGet(t, r, uk, base.MaxSeqNum, e)
				}
				checkGet(t, r, uk, seq, e)
				// Just below this version: the next older one, or nothing.
				if i+1 < len(entries) && bytes.Equal(base.UserKey(entries[i+1].key), uk) {
					checkGet(t, r, uk, seq-1, entries[i+1])
				} else if _, _, err := r.Get(uk, seq-1); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(%q) below its oldest version: %v, want ErrNotFound", uk, err)
				}
				absent := append(bytes.Clone(uk), 'c') // no key holds a 'c'
				if _, _, err := r.Get(absent, base.MaxSeqNum); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get of absent %q: %v, want ErrNotFound", absent, err)
				}
			}
			if n, err := r.VerifyChecksums(); err != nil || uint64(n) != r.Properties().DataBlocks {
				t.Fatalf("VerifyChecksums = %d, %v", n, err)
			}
		})
	}
}

// checkGet fails unless r.Get(uk, seq) returns entry e.
func checkGet(t *testing.T, r *Reader, uk []byte, seq base.SeqNum, e kv) {
	t.Helper()
	v, kind, err := r.Get(uk, seq)
	_, wantKind := base.DecodeTrailer(e.key)
	if err != nil || kind != wantKind || !bytes.Equal(v, e.value) {
		t.Fatalf("Get(%q, %d) = %q kind %d, %v; want %q kind %d", uk, seq, v, kind, err, e.value, wantKind)
	}
}
