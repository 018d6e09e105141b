package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

// arenaKey and arenaValue derive entry i's key and value. Every 1500th value
// is larger than the largest arena slab, so it takes the own-allocation path.
func arenaKey(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

func arenaValue(i int) []byte {
	n := 20 + i%300
	if i%1500 == 7 {
		n = memSlabMax + 1 + i
	}
	v := make([]byte, n)
	binary.LittleEndian.PutUint32(v, uint32(i))
	for j := 4; j < n; j++ {
		v[j] = byte(i + j)
	}
	return v
}

// TestMemTableArenaConcurrentReaders: one writer filling the arena-backed
// memtable (slabs growing, doubling and being replaced under it) with three
// readers on it: two point lookups of already published entries and a forward
// scan. Every entry a reader reaches must be whole, in
// order, and carry the value its key implies. Run under -race: a node and its
// bytes are written before the atomic store that publishes them, and nothing
// else orders the two sides.
func TestMemTableArenaConcurrentReaders(t *testing.T) {
	const entries = 6000
	// Inserted in a scattered order so new nodes land between old ones;
	// order[:published] is what lookups may expect to find.
	order := rand.New(rand.NewSource(5)).Perm(entries)
	m := newMemTable(1)
	var published atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup

	check := func(ikey, value []byte) bool {
		var i int
		if _, err := fmt.Sscanf(string(base.UserKey(ikey)), "k%06d", &i); err != nil {
			t.Errorf("reader saw key %q", ikey)
			return false
		}
		if !bytes.Equal(value, arenaValue(i)) {
			t.Errorf("entry %d: reader saw a value of %d bytes that is not the one written", i, len(value))
			return false
		}
		return true
	}
	reader := func(seed int64, body func(rng *rand.Rand) bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				if !body(rng) {
					return
				}
			}
		}()
	}
	get := func(rng *rand.Rand) bool {
		n := published.Load()
		if n == 0 {
			runtime.Gosched()
			return true
		}
		i := order[rng.Int63n(n)]
		v, kind, ok := m.get(arenaKey(i), base.MaxSeqNum)
		if !ok || kind != base.KindSet || !bytes.Equal(v, arenaValue(i)) {
			t.Errorf("get(%d) of a published entry: ok=%v kind=%v, %d bytes", i, ok, kind, len(v))
			return false
		}
		return true
	}
	reader(1, get)
	reader(2, get)
	reader(3, func(*rand.Rand) bool { // forward
		it := m.iter()
		var prev []byte
		for ok := it.First(); ok; ok = it.Next() {
			if prev != nil && base.CompareInternal(prev, it.Key()) >= 0 {
				t.Error("forward scan out of order")
				return false
			}
			prev = append(prev[:0], it.Key()...)
			if !check(it.Key(), it.Value()) {
				return false
			}
		}
		return true
	})

	var want int64
	for n, i := range order {
		k, v := arenaKey(i), arenaValue(i)
		m.add(base.SeqNum(i+1), base.KindSet, k, v)
		clear(v) // the memtable holds a copy, not the caller's bytes
		want += int64(len(k) + base.TrailerLen + len(v))
		published.Store(int64(n + 1))
	}
	close(done)
	wg.Wait()

	// Accounting is the sum of key and value bytes, as before the arena:
	// slab slack is not counted, so flush timing did not move.
	if got := m.approximateSize(); got != want {
		t.Fatalf("approximateSize = %d, want %d (sum of internal key and value lengths)", got, want)
	}
}

// TestGetValueOutlivesMemtable: DB.Get returns a copy. It must stay valid and
// unchanged after the memtable (and arena slab) it was copied from has been
// flushed and dropped, and writing to it must not reach the store.
func TestGetValueOutlivesMemtable(t *testing.T) {
	db, err := Open("db", testOptions(vfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key, want := []byte("pinned"), arenaValue(42)
	if err := db.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get(key)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get before flush: %d bytes, %v", len(got), err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ { // fill and rotate a few more memtables over the dropped one
		if err := db.Put(arenaKey(i), arenaValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if !bytes.Equal(got, want) {
		t.Fatal("a value returned by Get changed after its memtable was flushed and dropped")
	}
	for i := range got {
		got[i] = 0
	}
	if again, err := db.Get(key); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("Get after the caller scribbled on the earlier result: %d bytes, %v", len(again), err)
	}
}
