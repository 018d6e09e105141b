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

// arenaChunkCap is the skiplist arena's chunk cap: an entry above it gets a
// chunk of its own, and a list holding more than 20× it in entries has
// filled more than 20 chunks.
const arenaChunkCap = 256 << 10

// arenaKey and arenaValue derive entry i's key and value. Every 1500th value
// is larger than the arena's chunk cap, so it takes the own-chunk path.
func arenaKey(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

func arenaValue(i int) []byte {
	n := 20 + i%1200
	if i%1500 == 7 {
		n = arenaChunkCap + 1 + i
	}
	v := make([]byte, n)
	binary.LittleEndian.PutUint32(v, uint32(i))
	for j := 4; j < n; j++ {
		v[j] = byte(i + j)
	}
	return v
}

// TestMemTableArenaConcurrentReaders: one writer filling the arena-backed
// memtable (more than twenty chunks, growing, doubling and one per outsized
// entry) with readers on it: two point lookups of already published
// entries, a seek-and-scan from arbitrary internal keys and a forward scan,
// while the GC runs in a loop. Every entry a reader reaches must be whole, in
// order, and carry the value its key implies. Run under -race: an entry's
// bytes and the chunk table naming its chunk are written before the atomic
// store that publishes it, and nothing else orders the two sides.
func TestMemTableArenaConcurrentReaders(t *testing.T) {
	const entries = 9000
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
	reader(3, func(rng *rand.Rand) bool { // seek to any internal key, scan a few
		it := m.iter()
		target := base.MakeInternalKey(arenaKey(rng.Intn(entries)), base.SeqNum(rng.Intn(entries+2)), base.KindSet)
		var prev []byte
		for ok, j := it.SeekGE(target), 0; ok && j < 20; ok, j = it.Next(), j+1 {
			if base.CompareInternal(it.Key(), target) < 0 || prev != nil && base.CompareInternal(prev, it.Key()) >= 0 {
				t.Error("seek-and-scan out of order")
				return false
			}
			prev = append(prev[:0], it.Key()...)
			if !check(it.Key(), it.Value()) {
				return false
			}
		}
		return true
	})
	reader(4, func(*rand.Rand) bool {
		runtime.GC()
		return true
	})
	reader(5, func(*rand.Rand) bool { // forward
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

	// Accounting is the sum of key and value bytes: the arena's headers,
	// links and slack are not counted, so flush timing does not depend on
	// chunk sizes.
	if got := m.approximateSize(); got != want {
		t.Fatalf("approximateSize = %d, want %d (sum of internal key and value lengths)", got, want)
	}
	if want <= 20*arenaChunkCap {
		t.Fatalf("the writer added %d bytes, too few to fill 20 chunks", want)
	}
}

// TestGetValueOutlivesMemtable: DB.Get returns a copy. It must stay valid and
// unchanged after the memtable (and arena chunk) it was copied from has been
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
