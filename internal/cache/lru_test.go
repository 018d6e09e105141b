package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	c := New(1 << 20)
	k := Key{File: 1, Offset: 0}
	c.Put(k, []byte("hello"), 5)
	v, ok := c.Get(k)
	if !ok || string(v) != "hello" {
		t.Fatalf("get: %v %v", v, ok)
	}
	if _, ok := c.Get(Key{File: 2}); ok {
		t.Fatal("phantom hit")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	c := New(8 * 1024) // 1 KiB per shard
	for i := 0; i < 1000; i++ {
		c.Put(Key{File: 1, Offset: uint64(i)}, nil, 100)
	}
	if used := c.Used(); used > 8*1024 {
		t.Fatalf("capacity exceeded: %d", used)
	}
	// The most recent entries should largely survive; at least one of the
	// last few must be present.
	found := false
	for i := 995; i < 1000; i++ {
		if _, ok := c.Get(Key{File: 1, Offset: uint64(i)}); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("recent entries all evicted (not LRU)")
	}
}

func TestUpdateExistingKeyAdjustsCharge(t *testing.T) {
	c := New(8 * 1024)
	k := Key{File: 1, Offset: 42}
	c.Put(k, []byte("a"), 100)
	c.Put(k, []byte("bb"), 200)
	if used := c.Used(); used != 200 {
		t.Fatalf("used %d after replace", used)
	}
	v, _ := c.Get(k)
	if string(v) != "bb" {
		t.Fatal("stale value after replace")
	}
}

func TestEvictFile(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 100; i++ {
		c.Put(Key{File: 1, Offset: uint64(i)}, nil, 10)
		c.Put(Key{File: 2, Offset: uint64(i)}, nil, 10)
	}
	c.EvictFile(1)
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(Key{File: 1, Offset: uint64(i)}); ok {
			t.Fatal("evicted file entry served")
		}
	}
	survivors := 0
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(Key{File: 2, Offset: uint64(i)}); ok {
			survivors++
		}
	}
	if survivors == 0 {
		t.Fatal("EvictFile removed unrelated entries")
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := New(0)
	c.Put(Key{File: 1}, []byte("x"), 1)
	if _, ok := c.Get(Key{File: 1}); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

// Regression: capacities below nShards used to round every shard's maxSize
// to 0, silently disabling the cache while Stats/Used pretended it existed.
func TestSmallCapacityStillCaches(t *testing.T) {
	for capacity := int64(1); capacity < 2*nShards; capacity++ {
		c := New(capacity)
		var total int64
		for i := range c.shards {
			total += c.shards[i].maxSize
		}
		if total != capacity {
			t.Fatalf("capacity %d: shard maxSizes sum to %d", capacity, total)
		}
		// At least one charge-1 entry must be cacheable somewhere: probe
		// keys until one lands on a shard with nonzero capacity.
		cached := false
		for i := 0; i < 64 && !cached; i++ {
			k := Key{File: uint64(i), Offset: uint64(i)}
			c.Put(k, nil, 1)
			_, cached = c.Get(k)
		}
		if !cached {
			t.Fatalf("capacity %d: no entry cacheable", capacity)
		}
	}
}

// Regression for the Get data race: Get used to read entry.value after
// releasing the shard mutex while a concurrent Put on the same key updated
// it under the lock. Run with -race; the checker flags the old code. The
// value's length/contents pairing also catches torn reads without -race.
func TestConcurrentGetPutSameKeyRace(t *testing.T) {
	c := New(1 << 20)
	k := Key{File: 7, Offset: 7}
	c.Put(k, []byte{1}, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < 5000; i++ {
			v := make([]byte, 1+i%8)
			for j := range v {
				v[j] = byte(len(v))
			}
			c.Put(k, v, 8)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if v, ok := c.Get(k); ok {
			for _, b := range v {
				if int(b) != len(v) {
					t.Fatalf("torn read: %v", v)
				}
			}
		}
	}
}

// Stress: concurrent Get/Put/EvictFile across goroutines, with key overlap
// between workers so the same keys are updated and read concurrently.
// Primarily a -race target.
func TestConcurrentStress(t *testing.T) {
	c := New(64 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{File: uint64(i % 7), Offset: uint64(i % 101)}
				switch i % 5 {
				case 0, 1:
					c.Put(k, fmt.Appendf(nil, "%d-%d", g, i), int64(32+i%32))
				case 2, 3:
					c.Get(k)
				default:
					if i%250 == 0 {
						c.EvictFile(uint64(i % 7))
					} else {
						c.Used()
						c.Stats()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := Key{File: uint64(g), Offset: uint64(i % 50)}
				c.Put(k, fmt.Appendf(nil, "%d-%d", g, i), 64)
				c.Get(k)
				if i%100 == 0 {
					c.EvictFile(uint64(g))
				}
			}
		}(g)
	}
	wg.Wait()
}

// oracleShard is one shard of the LRU oracle: a map of live values and
// charges plus a recency slice, least recently used first.
type oracleShard struct {
	vals    map[Key][]byte
	charges map[Key]int64
	order   []Key
	used    int64
	maxSize int64
}

func (o *oracleShard) touch(k Key) {
	for i, x := range o.order {
		if x == k {
			o.order = append(append(o.order[:i:i], o.order[i+1:]...), k)
			return
		}
	}
	o.order = append(o.order, k)
}

func (o *oracleShard) drop(k Key) {
	for i, x := range o.order {
		if x == k {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
	o.used -= o.charges[k]
	delete(o.vals, k)
	delete(o.charges, k)
}

func (o *oracleShard) put(k Key, v []byte, charge int64) {
	if o.maxSize <= 0 {
		return
	}
	o.used += charge - o.charges[k]
	o.vals[k], o.charges[k] = v, charge
	o.touch(k)
	for o.used > o.maxSize && len(o.order) > 0 {
		o.drop(o.order[0])
	}
}

// checkLinks walks every shard's recency list and requires it to be the
// index: each entry linked both ways, filed under its own key, and the
// charges summing to used. A recycled entry still reachable under the key it
// held before shows here.
func checkLinks(t *testing.T, c *LRU) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		n, used := 0, int64(0)
		for e := s.head.next; e != &s.head; e = e.next {
			if e.next.prev != e || s.items[e.key] != e {
				t.Fatalf("shard %d: entry %v is not linked or indexed as itself", i, e.key)
			}
			n, used = n+1, used+e.charge
		}
		if n != len(s.items) || used != s.used {
			t.Fatalf("shard %d: %d entries charging %d in the list, %d indexed charging %d", i, n, used, len(s.items), s.used)
		}
	}
}

// TestLRUMatchesOracle drives a seeded random sequence of Puts (new keys,
// replaced keys, charges above the shard size), Gets and EvictFiles through
// the cache and through a map-plus-recency-slice oracle of each shard. Every
// Get's verdict and value, and Used, must agree. Each Put stores a value of
// its own, so an entry recycled by an eviction that served the key it held
// before would return a value the oracle does not hold.
func TestLRUMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const shardSize = 1000
	c := New(nShards * shardSize)
	oracle := make([]oracleShard, nShards)
	for i := range oracle {
		oracle[i] = oracleShard{vals: map[Key][]byte{}, charges: map[Key]int64{}, maxSize: c.shards[i].maxSize}
	}
	shardOf := func(k Key) *oracleShard {
		s := c.shardFor(k)
		for i := range c.shards {
			if &c.shards[i] == s {
				return &oracle[i]
			}
		}
		panic("key maps to no shard")
	}
	randKey := func() Key { return Key{File: uint64(rng.Intn(4)), Offset: uint64(rng.Intn(48))} }
	for op := 0; op < 50000; op++ {
		switch r := rng.Intn(100); {
		case r < 45:
			k := randKey()
			charge := int64(1 + rng.Intn(300))
			if rng.Intn(50) == 0 {
				charge = shardSize + int64(rng.Intn(200)) // larger than its shard
			}
			v := binary.BigEndian.AppendUint64(nil, uint64(op))
			c.Put(k, v, charge)
			shardOf(k).put(k, v, charge)
		case r < 98:
			k := randKey()
			got, ok := c.Get(k)
			o := shardOf(k)
			want, wantOK := o.vals[k]
			if ok != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("op %d: Get(%v) = %x, %v; oracle %x, %v", op, k, got, ok, want, wantOK)
			}
			if ok {
				o.touch(k)
			}
		default:
			file := uint64(rng.Intn(4))
			c.EvictFile(file)
			for i := range oracle {
				for _, k := range append([]Key(nil), oracle[i].order...) {
					if k.File == file {
						oracle[i].drop(k)
					}
				}
			}
		}
		var want int64
		for i := range oracle {
			want += oracle[i].used
		}
		if got := c.Used(); got != want {
			t.Fatalf("op %d: Used() = %d, oracle's live charges sum to %d", op, got, want)
		}
		if op%1000 == 0 {
			checkLinks(t, c)
		}
	}
	checkLinks(t, c)
	h, m := c.Stats()
	t.Logf("%d hits, %d misses", h, m)
}
