package cache

import (
	"fmt"
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
