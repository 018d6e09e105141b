package skiplist

import (
	"bytes"
	"sort"
	"testing"

	"shield/internal/lsm/base"
)

// fuzzKey maps a selector byte onto a small set of user keys, so inputs
// revisit one user key at many sequence numbers, plus long keys whose
// entries straddle chunk boundaries.
func fuzzKey(sel byte) []byte {
	switch sel % 8 {
	case 0:
		return nil
	case 1:
		return []byte("a")
	case 2:
		return []byte("k")
	case 3:
		return []byte("k\x00")
	case 4:
		return []byte("ka")
	case 5:
		return []byte("kb")
	case 6:
		return bytes.Repeat([]byte("k"), 1+int(sel>>3)*1031)
	default:
		return []byte("z")
	}
}

// fuzzValueLen maps a size byte onto a value length: small, a few KiB to
// tens of KiB (crossing chunk boundaries), just under the chunk cap and
// above it (a chunk of its own).
func fuzzValueLen(b byte) int {
	switch {
	case b < 192:
		return int(b)
	case b < 254:
		return int(b-192) * 1021
	case b == 254:
		return maxChunk - 40
	default:
		return maxChunk + 1
	}
}

type oracleEntry struct{ ikey, value []byte }

// FuzzSkiplistOracle: random insert and seek sequences checked against a
// sorted slice. Each op is four bytes: kind (bit 0: insert or seek; bit 1:
// the record kind), user-key selector, sequence number, value size.
func FuzzSkiplistOracle(f *testing.F) {
	var versions, sizes []byte
	for i := 0; i < 40; i++ { // one user key at many sequence numbers
		versions = append(versions, byte(i&2), 2, byte(i*37), byte(i))
		versions = append(versions, 1, 2, byte(i*53), 0)
	}
	for i := 0; i < 30; i++ { // sizes that cross chunks, reach and pass the cap
		sizes = append(sizes, 0, byte(i), byte(i), byte(190+i*2))
		sizes = append(sizes, 1, byte(i+3), 0xff, 0)
	}
	sizes = append(sizes, 0, 7, 1, 254, 0, 6, 2, 255, 0, 0x7e, 3, 10, 1, 0x7e, 0xff, 0)
	f.Add(versions)
	f.Add(sizes)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const budget = 16 << 20 // bytes of keys and values one input may insert
		l := New()
		var oracle []oracleEntry
		// find returns the first oracle position at or after ikey.
		find := func(ikey []byte) int {
			return sort.Search(len(oracle), func(i int) bool { return base.CompareInternal(oracle[i].ikey, ikey) >= 0 })
		}
		size := 0
		for n := 0; len(ops) >= 4; n, ops = n+1, ops[4:] {
			op, uk, seq := ops[0], fuzzKey(ops[1]), base.SeqNum(ops[2])
			kind := base.Kind(op >> 1 & 1)
			ikey := base.MakeInternalKey(uk, seq, kind)
			at := find(ikey)
			if op&1 == 1 { // seek, then step a few entries
				it := l.NewIterator()
				it.SeekGE(uk, base.MakeTrailer(seq, kind))
				for j := at; j < min(at+3, len(oracle)); j++ {
					if !it.Valid() || !bytes.Equal(it.Key(), oracle[j].ikey) || !bytes.Equal(it.Value(), oracle[j].value) {
						t.Fatalf("op %d: seek %q lands %d past it on the wrong entry", n, ikey, j-at)
					}
					it.Next()
				}
				if at+3 > len(oracle) && it.Valid() {
					t.Fatalf("op %d: seek %q runs past the oracle's end to %q", n, ikey, it.Key())
				}
				continue
			}
			v := bytes.Repeat([]byte{byte(n)}, fuzzValueLen(ops[3]))
			if at < len(oracle) && bytes.Equal(oracle[at].ikey, ikey) || size+len(ikey)+len(v) > budget {
				continue // internal keys are unique by contract
			}
			l.Insert(uk, base.MakeTrailer(seq, kind), v)
			for i := range v { // the list holds a copy: scribbling on v must not reach it
				v[i] ^= 0xff
			}
			oracle = append(oracle, oracleEntry{})
			copy(oracle[at+1:], oracle[at:])
			oracle[at] = oracleEntry{ikey, bytes.Repeat([]byte{byte(n)}, len(v))}
			size += len(ikey) + len(v)
		}
		if l.Len() != len(oracle) || l.ApproximateSize() != int64(size) {
			t.Fatalf("Len %d ApproximateSize %d, oracle %d entries of %d bytes", l.Len(), l.ApproximateSize(), len(oracle), size)
		}
		it := l.NewIterator()
		it.First()
		for i, e := range oracle {
			if !it.Valid() || !bytes.Equal(it.Key(), e.ikey) || !bytes.Equal(it.Value(), e.value) {
				t.Fatalf("scan: entry %d differs from the oracle's %q", i, e.ikey)
			}
			it.Next()
		}
		if it.Valid() {
			t.Fatalf("scan: entry %q past the oracle's end", it.Key())
		}
	})
}
