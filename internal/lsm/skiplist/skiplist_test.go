package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestInsertAndScan(t *testing.T) {
	l := New(bytes.Compare)
	n := 10_000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		k := fmt.Sprintf("k%06d", i)
		l.Insert([]byte(k), []byte(fmt.Sprintf("v%d", i)))
	}
	if l.Len() != n {
		t.Fatalf("len %d", l.Len())
	}

	it := l.NewIterator()
	count := 0
	var prev []byte
	for it.First(); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
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
	l := New(bytes.Compare)
	for i := 0; i < 1000; i += 2 { // only even keys
		l.Insert([]byte(fmt.Sprintf("k%06d", i)), nil)
	}
	it := l.NewIterator()

	it.SeekGE([]byte("k000100"))
	if !it.Valid() || string(it.Key()) != "k000100" {
		t.Fatalf("exact seek landed on %q", it.Key())
	}
	it.SeekGE([]byte("k000101")) // odd: next even is 102
	if !it.Valid() || string(it.Key()) != "k000102" {
		t.Fatalf("between seek landed on %q", it.Key())
	}
	it.SeekGE([]byte("zzz"))
	if it.Valid() {
		t.Fatal("seek past end is valid")
	}
	it.SeekGE([]byte(""))
	if !it.Valid() || string(it.Key()) != "k000000" {
		t.Fatal("seek before start should land on first")
	}
}

func TestApproximateSize(t *testing.T) {
	l := New(bytes.Compare)
	l.Insert([]byte("abc"), []byte("defg"))
	if l.ApproximateSize() != 7 {
		t.Fatalf("size %d", l.ApproximateSize())
	}
}

// TestConcurrentReadDuringInsert: one writer (external serialization) with
// concurrent readers must never observe broken links or unordered keys.
func TestConcurrentReadDuringInsert(t *testing.T) {
	l := New(bytes.Compare)
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
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						t.Error("reader observed disorder")
						return
					}
					prev = append(prev[:0], it.Key()...)
				}
			}
		}()
	}

	for i := 0; i < 20_000; i++ {
		l.Insert([]byte(fmt.Sprintf("k%08d", rand.Int63())), nil)
	}
	close(done)
	wg.Wait()
}

// TestSameSequenceSameTowers: tower heights come from a list-owned generator
// with a constant seed, so two lists fed the same inserts are the same
// structure, and the heights keep the 1/branching geometric shape.
func TestSameSequenceSameTowers(t *testing.T) {
	a, b := New(bytes.Compare), New(bytes.Compare)
	const entries = 40000
	for i := 0; i < entries; i++ {
		k := []byte(fmt.Sprintf("k%08d", i*7919%entries))
		a.Insert(k, nil)
		b.Insert(k, nil)
	}
	var byHeight [maxHeight + 1]int
	for x, y := a.head.next[0].Load(), b.head.next[0].Load(); x != nil; x, y = x.next[0].Load(), y.next[0].Load() {
		if !bytes.Equal(x.key, y.key) || len(x.next) != len(y.next) {
			t.Fatalf("lists diverge at %q: tower %d vs %q: tower %d", x.key, len(x.next), y.key, len(y.next))
		}
		byHeight[len(x.next)]++
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
	l := New(bytes.Compare)
	rng := rand.New(rand.NewSource(9))
	var keys []string
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("%016x", rng.Uint64())
		keys = append(keys, k)
		l.Insert([]byte(k), []byte(k))
	}
	sort.Strings(keys)
	it := l.NewIterator()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if string(it.Key()) != keys[i] {
			t.Fatalf("position %d: %q want %q", i, it.Key(), keys[i])
		}
		if !bytes.Equal(it.Key(), it.Value()) {
			t.Fatal("value mismatch")
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("scanned %d of %d", i, len(keys))
	}
}
