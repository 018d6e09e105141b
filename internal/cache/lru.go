// Package cache provides a size-bounded, sharded LRU cache: the LSM block
// cache of decrypted data blocks. (Open tables are kept by lsm's own
// refcounted table cache, not here.)
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies a cache entry: a file number plus an offset within it.
type Key struct {
	File   uint64
	Offset uint64
}

type entry struct {
	key    Key
	value  []byte
	charge int64
}

// shard is one LRU segment.
type shard struct {
	mu      sync.Mutex
	ll      *list.List
	items   map[Key]*list.Element
	used    int64 // total charge
	maxSize int64
}

// LRU is a sharded, thread-safe LRU cache bounded by total charge.
type LRU struct {
	shards [nShards]shard
	// Hit/miss counters are lock-free: a mutex here would serialize all
	// shards through one cache line on the hottest read-path operation,
	// defeating the sharding.
	nHit  atomic.Int64
	nMiss atomic.Int64
}

const nShards = 8

// New returns an LRU bounded by capacity bytes of charge. The capacity is
// spread across the shards with the remainder distributed one byte at a
// time, so every positive capacity yields at least one shard that can hold
// an entry. A capacity <= 0 is the disabled sentinel: every Get misses and
// Put is a no-op (per-shard maxSize 0), though Stats still counts the
// misses.
func New(capacity int64) *LRU {
	c := &LRU{}
	per := capacity / nShards
	rem := capacity % nShards
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[Key]*list.Element)
		c.shards[i].maxSize = per
		if int64(i) < rem {
			c.shards[i].maxSize++
		}
	}
	return c
}

func (c *LRU) shardFor(k Key) *shard {
	h := k.File*0x9e3779b97f4a7c15 ^ k.Offset*0xbf58476d1ce4e5b9
	return &c.shards[h%nShards]
}

// Get returns the cached value for k, if present. The value is read while
// the shard lock is held: a concurrent Put updating the same key writes
// entry.value under that lock, so reading it after unlock would race and
// could hand the caller a torn value.
func (c *LRU) Get(k Key) ([]byte, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	var v []byte
	var ok bool
	if el, hit := s.items[k]; hit {
		s.ll.MoveToFront(el)
		v, ok = el.Value.(*entry).value, true
	}
	s.mu.Unlock()

	if !ok {
		c.nMiss.Add(1)
		return nil, false
	}
	c.nHit.Add(1)
	return v, true
}

// Put inserts value under k with the given charge, evicting LRU entries to
// stay within capacity. The cache stores the slice itself, never a boxed
// copy of it, so a Put allocates only its entry.
func (c *LRU) Put(k Key, value []byte, charge int64) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxSize <= 0 {
		return
	}
	if el, ok := s.items[k]; ok {
		e := el.Value.(*entry)
		s.used += charge - e.charge
		e.value, e.charge = value, charge
		s.ll.MoveToFront(el)
	} else {
		el := s.ll.PushFront(&entry{key: k, value: value, charge: charge})
		s.items[k] = el
		s.used += charge
	}
	for s.used > s.maxSize {
		back := s.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		s.ll.Remove(back)
		delete(s.items, e.key)
		s.used -= e.charge
	}
}

// EvictFile drops all entries belonging to file — called when an SST is
// deleted so stale blocks cannot be served.
func (c *LRU) EvictFile(file uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; {
			next := el.Next()
			e := el.Value.(*entry)
			if e.key.File == file {
				s.ll.Remove(el)
				delete(s.items, e.key)
				s.used -= e.charge
			}
			el = next
		}
		s.mu.Unlock()
	}
}

// Stats returns cumulative hit and miss counts.
func (c *LRU) Stats() (hits, misses int64) {
	return c.nHit.Load(), c.nMiss.Load()
}

//shield:notestonly the total charge held, for the cache tests to assert on
func (c *LRU) Used() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}
