package lsm

import (
	"bytes"

	"shield/internal/lsm/base"
	"shield/internal/lsm/skiplist"
)

// memTable wraps the skiplist with internal-key semantics.
type memTable struct {
	list   *skiplist.List
	logNum uint64 // WAL file backing this memtable

	// slab is the arena entries are copied into: each add carves
	// key ‖ trailer ‖ value off its free tail and hands the skiplist two
	// capacity-clipped views. Slabs are never reused or freed one by one; they
	// live exactly as long as the memtable (readers and iterators hold it) and
	// go together when it is dropped after its flush.
	slab []byte
}

// Arena slabs start at memSlabMin and double to memSlabMax, so a near-empty
// memtable (every reopen has one) does not pay for a full one's slab. An
// entry larger than memSlabMax gets an allocation of its own.
const (
	memSlabMin = 4 << 10
	memSlabMax = 256 << 10
)

// alloc returns n fresh bytes of arena.
func (m *memTable) alloc(n int) []byte {
	if n > memSlabMax {
		return make([]byte, n)
	}
	if n > cap(m.slab)-len(m.slab) {
		size := min(max(2*cap(m.slab), memSlabMin), memSlabMax)
		for size < n {
			size *= 2
		}
		m.slab = make([]byte, 0, size)
	}
	at := len(m.slab)
	m.slab = m.slab[:at+n]
	return m.slab[at : at+n : at+n]
}

func newMemTable(logNum uint64) *memTable {
	return &memTable{list: skiplist.New(base.CompareInternal), logNum: logNum}
}

// add inserts a copy of one record. Callers serialize adds (the commit
// pipeline). approximateSize counts len(ikey)+len(value) per record and
// nothing of the arena's slack, so flush timing does not depend on slab sizes.
func (m *memTable) add(seq base.SeqNum, kind base.Kind, key, value []byte) {
	k := len(key) + base.TrailerLen
	buf := m.alloc(k + len(value))
	ikey := base.AppendInternalKey(buf[:0], key, seq, kind)
	copy(buf[k:], value)
	m.list.Insert(ikey[:k:k], buf[k:])
}

// get returns the newest record for userKey visible at seq.
// ok reports whether any record was found; kind distinguishes live values
// from tombstones.
func (m *memTable) get(userKey []byte, seq base.SeqNum) (value []byte, kind base.Kind, ok bool) {
	it := m.list.NewIterator()
	it.SeekGE(base.SearchKey(userKey, seq))
	if !it.Valid() {
		return nil, 0, false
	}
	ikey := it.Key()
	if !bytes.Equal(base.UserKey(ikey), userKey) {
		return nil, 0, false
	}
	_, k := base.DecodeTrailer(ikey)
	return it.Value(), k, true
}

func (m *memTable) approximateSize() int64 { return m.list.ApproximateSize() }
func (m *memTable) empty() bool            { return m.list.Len() == 0 }

// iter adapts the skiplist iterator to the internalIterator interface.
func (m *memTable) iter() internalIterator {
	return &memIter{it: m.list.NewIterator()}
}

type memIter struct {
	it *skiplist.Iterator
}

func (m *memIter) First() bool {
	m.it.First()
	return m.it.Valid()
}

func (m *memIter) Next() bool {
	m.it.Next()
	return m.it.Valid()
}

func (m *memIter) SeekGE(target []byte) bool {
	m.it.SeekGE(target)
	return m.it.Valid()
}

func (m *memIter) Valid() bool   { return m.it.Valid() }
func (m *memIter) Key() []byte   { return m.it.Key() }
func (m *memIter) Value() []byte { return m.it.Value() }
func (m *memIter) Err() error    { return nil }
func (m *memIter) Close() error  { return nil }
