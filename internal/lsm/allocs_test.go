//go:build !race

package lsm

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

// Allocation counts mean nothing under the race detector, hence the build
// tag; `make io-path-check` runs these without -race.

// allocsPer returns the heap allocations per call of fn, as a fraction:
// testing.AllocsPerRun rounds down to a whole number, which would pass
// anything below one allocation per call.
func allocsPer(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestPutAllocs pins the write path's mechanism. A Put in steady state
// allocates nothing of its own: the batch and its commit-pipeline seat come
// from a pool, an uncontended commit needs no channel and no group slice, and
// the memtable copies the entry into its arena. What remains is amortised
// growth: an arena chunk per several hundred entries and a memfs extent per
// 256 KiB of WAL. The engine is opened with no
// FileWrapper, so the number is lsm's own and not an encrypting writer's, and
// the memtable is large enough that no flush runs inside the measurement.
func TestPutAllocs(t *testing.T) {
	opts := testOptions(vfs.NewMem())
	opts.MemtableSize = 256 << 20
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := []byte("user0000000000000000")
	value := make([]byte, 276)
	i := 0
	put := func() {
		i++
		for j, n := len(key)-1, i; n > 0; j, n = j-1, n/10 {
			key[j] = byte('0' + n%10)
		}
		if err := db.Put(key, value); err != nil {
			t.Fatal(err)
		}
	}
	for i < 2000 {
		put()
	}
	if a := allocsPer(20000, put); a > 0.1 {
		t.Errorf("DB.Put: %.3f allocs per call in steady state, want <= 0.1 (chunk and extent growth only)", a)
	}
}

// TestMemTableAddAllocs: an entry costs no allocation of its own, only its
// share of the arena chunk it is carved from.
func TestMemTableAddAllocs(t *testing.T) {
	const entries = 10000
	m := newMemTable(1)
	keys := make([][]byte, entries)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i*7919%entries))
	}
	value := make([]byte, 276)
	i := 0
	if a := allocsPer(entries, func() {
		m.add(base.SeqNum(i+1), base.KindSet, keys[i], value)
		i++
	}); a >= 0.05 {
		t.Errorf("memTable.add: %.3f allocs per entry over %d entries, want < 0.05", a, entries)
	}
}

// TestMemTableGetAllocs: a memtable lookup, hit or miss, allocates nothing.
// The list orders internal keys itself, so the seek takes the user key and
// trailer as they are, and its iterator stays on the stack.
func TestMemTableGetAllocs(t *testing.T) {
	m := newMemTable(1)
	value := make([]byte, 256)
	for i := 0; i < 1000; i++ {
		m.add(base.SeqNum(i+1), base.KindSet, []byte(fmt.Sprintf("user%016d", 2*i)), value)
	}
	hit, miss := []byte(fmt.Sprintf("user%016d", 500)), []byte(fmt.Sprintf("user%016d", 501))
	for _, c := range []struct {
		name string
		key  []byte
		ok   bool
	}{{"hit", hit, true}, {"miss", miss, false}} {
		if a := allocsPer(10000, func() {
			if _, _, ok := m.get(c.key, base.MaxSeqNum); ok != c.ok {
				t.Fatalf("get(%s) found %v", c.key, ok)
			}
		}); a != 0 {
			t.Errorf("memTable.get, %s: %.3f allocations per call, want 0", c.name, a)
		}
	}
}

// gatedFS holds every SST Create once armed until the gate is closed: a
// flush started then stays pending, its memtable immutable.
type gatedFS struct {
	vfs.FS
	armed atomic.Bool
	gate  chan struct{}
}

func (fs *gatedFS) Create(name string) (vfs.WritableFile, error) {
	if fs.armed.Load() && strings.HasSuffix(name, ".sst") {
		<-fs.gate
	}
	return fs.FS.Create(name)
}

// TestGetAllocs pins the Get path's allocations on a table Get, over a
// one-table store with no FileWrapper. A block-cache hit allocates one: the
// returned value. The memtable probe builds no search key
// (TestMemTableGetAllocs), the immutable memtables are probed through the
// slice header taken under the lock, not a copy of it, the table's search
// key is built on the stack, the table is borrowed from the table cache
// without a release closure, and the block iterator decodes keys into a
// buffer of its own. A miss adds one: the block read. The cache stores that
// slice, not a boxed copy, in the entry its last eviction freed.
func TestGetAllocs(t *testing.T) {
	const keys = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%016d", i)) }
	for _, c := range []struct {
		name       string
		cacheSize  int64
		stride     int  // keys between two Gets: two blocks' worth makes every Get a miss
		pendingImm bool // a flush is pending: Gets probe an immutable memtable first
		want       float64
	}{
		{"cache hit", 8 << 20, 0, false, 1},
		{"cache miss", 64 << 10, 29, false, 2},
		{"cache hit, immutable memtable pending", 8 << 20, 0, true, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := &gatedFS{FS: vfs.NewMem(), gate: make(chan struct{})}
			opts := testOptions(fs)
			opts.MemtableSize = 64 << 20
			opts.BlockCacheSize = c.cacheSize
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			value := make([]byte, 276)
			for i := 0; i < keys; i++ {
				if err := db.Put(key(i), value); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if c.pendingImm {
				if err := db.Put([]byte("other"), value); err != nil {
					t.Fatal(err)
				}
				fs.armed.Store(true)
				flushed := make(chan error, 1)
				go func() { flushed <- db.Flush() }()
				defer func() {
					close(fs.gate)
					if err := <-flushed; err != nil {
						t.Error(err)
					}
				}()
				for pending := 0; pending == 0; {
					runtime.Gosched()
					db.mu.Lock()
					pending = len(db.imm)
					db.mu.Unlock()
				}
			}
			lookups := make([][]byte, keys)
			for i := range lookups {
				lookups[i] = key(i * c.stride % keys)
			}
			i := 0
			get := func() {
				if _, err := db.Get(lookups[i%keys]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for i < keys {
				get() // warm the table cache and, for hits, the block cache
			}
			hits, misses := db.blockCache.Stats()
			const runs = 5000
			a := allocsPer(runs, get)
			db.mu.Lock()
			pending := len(db.imm)
			db.mu.Unlock()
			if c.pendingImm && pending != 1 {
				t.Fatalf("%d immutable memtables after the Gets, want the 1 pending", pending)
			}
			h, m := db.blockCache.Stats()
			t.Logf("%.2f allocations per Get, %d block-cache hits and %d misses in %d Gets", a, h-hits, m-misses, runs)
			if wantMisses := int64(runs) * int64(min(c.stride, 1)); m-misses != wantMisses {
				t.Fatalf("%d block-cache misses in %d Gets, want %d", m-misses, runs, wantMisses)
			}
			if a > c.want+0.05 { // the slack is the rare allocation of a background goroutine
				t.Errorf("DB.Get: %.2f allocations per call, want at most %.0f", a, c.want)
			}
		})
	}
}
