package skiplist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"shield/internal/lsm/base"
)

// ins inserts key at trailer 1, the shape of a single-version memtable.
func ins(l *List, key string, value []byte) { l.Insert([]byte(key), 1, value) }

// userKey returns the user key of the iterator's entry as a string.
func userKey(it *Iterator) string { return string(base.UserKey(it.Key())) }

func TestInsertAndScan(t *testing.T) {
	l := New()
	n := 10_000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		ins(l, fmt.Sprintf("k%06d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	if l.Len() != n {
		t.Fatalf("len %d", l.Len())
	}

	it := l.NewIterator()
	count := 0
	var prev []byte
	for it.First(); it.Valid(); it.Next() {
		if prev != nil && base.CompareInternal(prev, it.Key()) >= 0 {
			t.Fatalf("out of order at %d: %q after %q", count, it.Key(), prev)
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != n {
		t.Fatalf("scanned %d of %d", count, n)
	}
}

func TestSeekGE(t *testing.T) {
	l := New()
	for i := 0; i < 1000; i += 2 { // only even keys
		ins(l, fmt.Sprintf("k%06d", i), nil)
	}
	it := l.NewIterator()

	it.SeekGE([]byte("k000100"), base.MakeTrailer(base.MaxSeqNum, base.KindSet))
	if !it.Valid() || userKey(&it) != "k000100" {
		t.Fatalf("exact seek landed on %q", it.Key())
	}
	it.SeekGE([]byte("k000101"), base.MakeTrailer(base.MaxSeqNum, base.KindSet)) // odd: next even is 102
	if !it.Valid() || userKey(&it) != "k000102" {
		t.Fatalf("between seek landed on %q", it.Key())
	}
	it.SeekGE([]byte("k000100"), 0) // below the entry's trailer: it sorts before the target
	if !it.Valid() || userKey(&it) != "k000102" {
		t.Fatalf("seek past the only version landed on %q", it.Key())
	}
	it.SeekGE([]byte("zzz"), 0)
	if it.Valid() {
		t.Fatal("seek past end is valid")
	}
	it.SeekGE(nil, base.MakeTrailer(base.MaxSeqNum, base.KindSet))
	if !it.Valid() || userKey(&it) != "k000000" {
		t.Fatal("seek before start should land on first")
	}
}

func TestApproximateSize(t *testing.T) {
	l := New()
	ins(l, "abc", []byte("defg"))
	if l.ApproximateSize() != 3+base.TrailerLen+4 {
		t.Fatalf("size %d", l.ApproximateSize())
	}
}

// TestConcurrentReadDuringInsert: one writer (external serialization) with
// concurrent readers must never observe broken links or unordered keys.
func TestConcurrentReadDuringInsert(t *testing.T) {
	l := New()
	done := make(chan struct{})
	var wg sync.WaitGroup

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				it := l.NewIterator()
				var prev []byte
				for it.First(); it.Valid(); it.Next() {
					if prev != nil && base.CompareInternal(prev, it.Key()) >= 0 {
						t.Error("reader observed disorder")
						return
					}
					prev = append(prev[:0], it.Key()...)
				}
			}
		}()
	}

	for i := 0; i < 20_000; i++ {
		ins(l, fmt.Sprintf("k%08d", rand.Int63()), nil)
	}
	close(done)
	wg.Wait()
}

// TestSameSequenceSameTowers: tower heights come from a list-owned generator
// with a constant seed, so two lists fed the same inserts are the same
// structure, and the heights keep the 1/branching geometric shape.
func TestSameSequenceSameTowers(t *testing.T) {
	a, b := New(), New()
	const entries = 40000
	for i := 0; i < entries; i++ {
		k := fmt.Sprintf("k%08d", i*7919%entries)
		ins(a, k, nil)
		ins(b, k, nil)
	}
	var byHeight [maxHeight + 1]int
	x, y := a.NewIterator(), b.NewIterator()
	x.First()
	for y.First(); x.Valid(); x.Next() {
		hx, hy := (*header)(x.e).height, (*header)(y.e).height
		if !y.Valid() || !bytes.Equal(x.Key(), y.Key()) || hx != hy {
			t.Fatalf("lists diverge at %q: tower %d vs %q: tower %d", x.Key(), hx, y.Key(), hy)
		}
		byHeight[hx]++
		y.Next()
	}
	// Expected share of height h is (3/4)(1/4)^(h-1); hold the first three to
	// within a fifth of that.
	for h, want := 1, 0.75*entries; h <= 3; h, want = h+1, want/branching {
		if got := float64(byHeight[h]); got < 0.8*want || got > 1.2*want {
			t.Errorf("%d towers of height %d, want about %.0f", byHeight[h], h, want)
		}
	}
}

func TestRandomizedAgainstSortedSlice(t *testing.T) {
	l := New()
	rng := rand.New(rand.NewSource(9))
	var keys []string
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("%016x", rng.Uint64())
		keys = append(keys, k)
		ins(l, k, []byte(k))
	}
	sort.Strings(keys)
	it := l.NewIterator()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if userKey(&it) != keys[i] {
			t.Fatalf("position %d: %q want %q", i, it.Key(), keys[i])
		}
		if !bytes.Equal(base.UserKey(it.Key()), it.Value()) {
			t.Fatal("value mismatch")
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("scanned %d of %d", i, len(keys))
	}
}

// arenaEntry derives entry i's key and value. Sizes vary so entries straddle
// every chunk boundary, and every 4000th value is above the chunk cap, so it
// takes a chunk of its own.
func arenaEntry(i int) (key, value []byte) {
	n := 20 + i*7%600
	if i%4000 == 11 {
		n = maxChunk + 1 + i
	}
	value = make([]byte, n)
	binary.LittleEndian.PutUint32(value, uint32(i))
	for j := 4; j < n; j++ {
		value[j] = byte(i + j)
	}
	return []byte(fmt.Sprintf("k%07d", i)), value
}

// TestArenaViewsAreClipped: Key and Value are clipped to their entry, so
// appending to either copies instead of overwriting the value behind the
// key or the entry after it.
func TestArenaViewsAreClipped(t *testing.T) {
	l := New()
	const entries = 2000
	for i := 0; i < entries; i++ {
		k, v := arenaEntry(i % 300)
		l.Insert(append(k, fmt.Sprintf(".%d", i)...), 1, v)
	}
	it := l.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		k, v := it.Key(), it.Value()
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("%q: key cap %d len %d, value cap %d len %d", k, cap(k), len(k), cap(v), len(v))
		}
		_ = append(k, bytes.Repeat([]byte{0xee}, 64)...)
		_ = append(v, bytes.Repeat([]byte{0xee}, 64)...)
	}
	n := 0
	for it.First(); it.Valid(); it.Next() {
		var i, j int
		if _, err := fmt.Sscanf(userKey(&it), "k%07d.%d", &i, &j); err != nil {
			t.Fatalf("entry %d: key %q after appends: %v", n, it.Key(), err)
		}
		if _, want := arenaEntry(i); !bytes.Equal(it.Value(), want) {
			t.Fatalf("entry %q: value changed after appends", it.Key())
		}
		n++
	}
	if n != entries {
		t.Fatalf("scanned %d of %d after appends", n, entries)
	}
}

// TestArenaViewsOutliveList: a held Value or Key view keeps its chunk alive
// after the list is dropped and the GC has run and reused the freed memory.
func TestArenaViewsOutliveList(t *testing.T) {
	const entries = 3000
	l := New()
	for i := 0; i < entries; i++ {
		k, v := arenaEntry(i)
		l.Insert(k, 1, v)
	}
	var keys, values [][]byte
	it := l.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		keys, values = append(keys, it.Key()), append(values, it.Value())
	}
	l, it = nil, Iterator{}
	var junk [][]byte
	for r := 0; r < 3; r++ {
		runtime.GC()
		for i := 0; i < 2000; i++ { // reuse whatever the GC freed
			junk = append(junk, bytes.Repeat([]byte{0xaa}, 512))
		}
	}
	runtime.KeepAlive(junk)
	for i := range values {
		k, v := arenaEntry(i)
		if !bytes.Equal(base.UserKey(keys[i]), k) || !bytes.Equal(values[i], v) {
			t.Fatalf("entry %d changed after its list was dropped", i)
		}
	}
}
