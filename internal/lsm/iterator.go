package lsm

import (
	"bytes"
	"container/heap"

	"shield/internal/lsm/base"
	"shield/internal/lsm/sstable"
)

// internalIterator walks internal-key/value entries in ascending
// internal-key order.
type internalIterator interface {
	First() bool
	Next() bool
	SeekGE(target []byte) bool
	Valid() bool
	Key() []byte
	Value() []byte
	Err() error
	Close() error
}

// sstIterAdapter adapts sstable.Iter and, when it borrowed its table from
// the table cache, gives it back on Close.
type sstIterAdapter struct {
	it     *sstable.Iter
	tables *tableCache
	entry  *tableEntry
	// wrapErr, when set, types errors surfacing from lazy block loads
	// (e.g. a sealed block failing authentication mid-iteration).
	wrapErr func(error) error
}

func (s *sstIterAdapter) First() bool               { return s.it.First() }
func (s *sstIterAdapter) Next() bool                { return s.it.Next() }
func (s *sstIterAdapter) SeekGE(target []byte) bool { return s.it.SeekGE(target) }
func (s *sstIterAdapter) Valid() bool               { return s.it.Valid() }
func (s *sstIterAdapter) Key() []byte               { return s.it.Key() }
func (s *sstIterAdapter) Value() []byte             { return s.it.Value() }
func (s *sstIterAdapter) Err() error {
	err := s.it.Err()
	if err != nil && s.wrapErr != nil {
		return s.wrapErr(err)
	}
	return err
}

func (s *sstIterAdapter) Close() error {
	if s.entry != nil {
		s.tables.release(s.entry)
		s.entry = nil
	}
	return nil
}

// mergingIter merges several internalIterators by internal-key order using
// a binary heap.
type mergingIter struct {
	iters []internalIterator // all children (for Close)
	h     iterHeap
	err   error
}

type iterHeap []internalIterator

func (h iterHeap) Len() int { return len(h) }
func (h iterHeap) Less(i, j int) bool {
	return base.CompareInternal(h[i].Key(), h[j].Key()) < 0
}
func (h iterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *iterHeap) Push(x any)   { *h = append(*h, x.(internalIterator)) }
func (h *iterHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func newMergingIter(iters ...internalIterator) *mergingIter {
	return &mergingIter{iters: iters}
}

func (m *mergingIter) initHeap(position func(internalIterator) bool) bool {
	m.h = m.h[:0]
	for _, it := range m.iters {
		if position(it) {
			m.h = append(m.h, it)
		} else if err := it.Err(); err != nil {
			m.err = err
			return false
		}
	}
	heap.Init(&m.h)
	return len(m.h) > 0
}

func (m *mergingIter) First() bool {
	return m.initHeap(func(it internalIterator) bool { return it.First() })
}

func (m *mergingIter) SeekGE(target []byte) bool {
	return m.initHeap(func(it internalIterator) bool { return it.SeekGE(target) })
}

func (m *mergingIter) Next() bool {
	if len(m.h) == 0 {
		return false
	}
	top := m.h[0]
	if top.Next() {
		heap.Fix(&m.h, 0)
	} else {
		if err := top.Err(); err != nil {
			m.err = err
			return false
		}
		heap.Pop(&m.h)
	}
	return len(m.h) > 0
}

func (m *mergingIter) Valid() bool   { return m.err == nil && len(m.h) > 0 }
func (m *mergingIter) Key() []byte   { return m.h[0].Key() }
func (m *mergingIter) Value() []byte { return m.h[0].Value() }
func (m *mergingIter) Err() error    { return m.err }

func (m *mergingIter) Close() error {
	var first error
	for _, it := range m.iters {
		if err := it.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Iterator is the user-facing DB iterator: it exposes the newest visible
// version of each user key at its snapshot, hiding tombstones and older
// versions.
type Iterator struct {
	m       *mergingIter
	seq     base.SeqNum
	key     []byte
	value   []byte
	valid   bool
	onClose func()
}

// findNextUserKey advances the merged stream to the next visible user entry
// at or after the merged iterator's current position.
func (it *Iterator) findNextUserKey(skipCurrent []byte) {
	it.valid = false
	for it.m.Valid() {
		ikey := it.m.Key()
		ukey := base.UserKey(ikey)
		seq, kind := base.DecodeTrailer(ikey)
		if seq > it.seq || (skipCurrent != nil && bytes.Equal(ukey, skipCurrent)) {
			// Invisible at this snapshot, or an older version of a key we
			// already emitted (or just skipped): move on.
			it.m.Next()
			continue
		}
		if kind == base.KindDelete {
			// Tombstone: skip every older version of this key.
			skipCurrent = append([]byte(nil), ukey...)
			it.m.Next()
			continue
		}
		it.key = append(it.key[:0], ukey...)
		it.value = append(it.value[:0], it.m.Value()...)
		it.valid = true
		return
	}
}

// First positions at the smallest visible key.
func (it *Iterator) First() bool {
	if !it.m.First() {
		it.valid = false
		return false
	}
	it.findNextUserKey(nil)
	return it.valid
}

// SeekGE positions at the first visible key >= userKey.
func (it *Iterator) SeekGE(userKey []byte) bool {
	if !it.m.SeekGE(base.SearchKey(userKey, it.seq)) {
		it.valid = false
		return false
	}
	it.findNextUserKey(nil)
	return it.valid
}

// Next advances to the next visible key.
func (it *Iterator) Next() bool {
	if !it.valid {
		return false
	}
	cur := append([]byte(nil), it.key...)
	it.m.Next()
	it.findNextUserKey(cur)
	return it.valid
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key; valid until the next call.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value; valid until the next call.
func (it *Iterator) Value() []byte { return it.value }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.m.Err() }

// Close releases pinned tables and memtables.
func (it *Iterator) Close() error {
	err := it.m.Close()
	if it.onClose != nil {
		it.onClose()
		it.onClose = nil
	}
	return err
}

// concatIter iterates a sorted, non-overlapping run of files (one L1+
// level) lazily, opening one table at a time.
type concatIter struct {
	files []fileHandle
	idx   int
	cur   internalIterator
	err   error
}

// fileHandle defers table opening to iteration time.
type fileHandle struct {
	open func() (internalIterator, error)
	// largest bounds the file in internal-key space.
	largest []byte
}

func newConcatIter(files []fileHandle) *concatIter {
	return &concatIter{files: files, idx: -1}
}

func (c *concatIter) closeCur() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
}

func (c *concatIter) openIdx() bool {
	c.closeCur()
	if c.idx < 0 || c.idx >= len(c.files) {
		return false
	}
	it, err := c.files[c.idx].open()
	if err != nil {
		c.err = err
		return false
	}
	c.cur = it
	return true
}

func (c *concatIter) First() bool {
	c.idx = 0
	if !c.openIdx() {
		return false
	}
	if c.cur.First() {
		return true
	}
	return c.Next()
}

func (c *concatIter) Next() bool {
	if c.err != nil {
		return false
	}
	for {
		if c.cur != nil && c.cur.Next() {
			return true
		}
		if c.cur != nil {
			if err := c.cur.Err(); err != nil {
				c.err = err
				return false
			}
		}
		c.idx++
		if !c.openIdx() {
			return false
		}
		if c.cur.First() {
			return true
		}
	}
}

func (c *concatIter) SeekGE(target []byte) bool {
	// Binary-search the file whose largest >= target.
	lo, hi := 0, len(c.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if base.CompareInternal(c.files[mid].largest, target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.idx = lo
	if !c.openIdx() {
		return false
	}
	if c.cur.SeekGE(target) {
		return true
	}
	return c.Next()
}

func (c *concatIter) Valid() bool   { return c.err == nil && c.cur != nil && c.cur.Valid() }
func (c *concatIter) Key() []byte   { return c.cur.Key() }
func (c *concatIter) Value() []byte { return c.cur.Value() }
func (c *concatIter) Err() error    { return c.err }

func (c *concatIter) Close() error {
	c.closeCur()
	return nil
}
