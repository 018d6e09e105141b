// Package cache provides a size-bounded, sharded LRU cache: the LSM block
// cache of decrypted data blocks. (Open tables are kept by lsm's own
// refcounted table cache, not here.)
package cache

import (
	"sync"
	"sync/atomic"
)

// Key identifies a cache entry: a file number plus an offset within it.
type Key struct {
	File   uint64
	Offset uint64
}

// entry is one cached value and its links in its shard's recency list.
type entry struct {
	key        Key
	value      []byte
	charge     int64
	prev, next *entry
}

// shard is one LRU segment: a circular doubly linked recency list through
// the sentinel head (head.next is the most recently used entry, head.prev
// the least) and an index over it.
type shard struct {
	mu    sync.Mutex
	head  entry
	items map[Key]*entry
	// spare is the entry the last eviction removed, cleared, kept for the
	// next insert: a Put that evicts allocates nothing.
	spare   *entry
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
		s := &c.shards[i]
		s.head.prev, s.head.next = &s.head, &s.head
		s.items = make(map[Key]*entry)
		s.maxSize = per
		if int64(i) < rem {
			s.maxSize++
		}
	}
	return c
}

func (c *LRU) shardFor(k Key) *shard {
	h := k.File*0x9e3779b97f4a7c15 ^ k.Offset*0xbf58476d1ce4e5b9
	return &c.shards[h%nShards]
}

// unlink takes e out of the recency list.
func unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFront links e in as the most recently used entry.
func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.head, s.head.next
	s.head.next.prev = e
	s.head.next = e
}

// moveToFront marks e as the most recently used entry.
func (s *shard) moveToFront(e *entry) {
	unlink(e)
	s.pushFront(e)
}

// remove drops e from the list and the index and releases its charge.
func (s *shard) remove(e *entry) {
	unlink(e)
	delete(s.items, e.key)
	s.used -= e.charge
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
	if e, hit := s.items[k]; hit {
		s.moveToFront(e)
		v, ok = e.value, true
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
// copy of it, and an insert reuses the entry the last eviction freed, so a
// Put that evicts allocates nothing.
func (c *LRU) Put(k Key, value []byte, charge int64) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxSize <= 0 {
		return
	}
	if e, ok := s.items[k]; ok {
		s.used += charge - e.charge
		e.value, e.charge = value, charge
		s.moveToFront(e)
	} else {
		e := s.spare
		if e == nil {
			e = new(entry)
		}
		s.spare = nil
		e.key, e.value, e.charge = k, value, charge
		s.items[k] = e
		s.pushFront(e)
		s.used += charge
	}
	for s.used > s.maxSize && s.head.prev != &s.head {
		e := s.head.prev
		s.remove(e)
		*e = entry{} // drop the value and links before it waits as the spare
		s.spare = e
	}
}

// EvictFile drops all entries belonging to file — called when an SST is
// deleted so stale blocks cannot be served.
func (c *LRU) EvictFile(file uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head.next; e != &s.head; {
			next := e.next
			if e.key.File == file {
				s.remove(e)
			}
			e = next
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
