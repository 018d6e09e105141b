package lsm

import (
	"bytes"

	"shield/internal/lsm/base"
	"shield/internal/lsm/skiplist"
)

// memTable is the skiplist arena holding one WAL's worth of records. The
// list orders internal keys itself and copies each record into its arena,
// so an entry costs no allocation of its own and a lookup builds no search
// key.
type memTable struct {
	list   *skiplist.List
	logNum uint64 // WAL file backing this memtable
}

func newMemTable(logNum uint64) *memTable {
	return &memTable{list: skiplist.New(), logNum: logNum}
}

// add inserts a copy of one record. Callers serialize adds (the commit
// pipeline). approximateSize counts len(ikey)+len(value) per record and
// nothing of the arena's overhead, so flush timing does not depend on it.
func (m *memTable) add(seq base.SeqNum, kind base.Kind, key, value []byte) {
	m.list.Insert(key, base.MakeTrailer(seq, kind), value)
}

// get returns the newest record for userKey visible at seq.
// ok reports whether any record was found; kind distinguishes live values
// from tombstones. It allocates nothing.
func (m *memTable) get(userKey []byte, seq base.SeqNum) (value []byte, kind base.Kind, ok bool) {
	it := m.list.NewIterator()
	it.SeekGE(userKey, base.MakeTrailer(seq, base.KindSet))
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
	it skiplist.Iterator
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
	seq, kind := base.DecodeTrailer(target)
	m.it.SeekGE(base.UserKey(target), base.MakeTrailer(seq, kind))
	return m.it.Valid()
}

func (m *memIter) Valid() bool   { return m.it.Valid() }
func (m *memIter) Key() []byte   { return m.it.Key() }
func (m *memIter) Value() []byte { return m.it.Value() }
func (m *memIter) Err() error    { return nil }
func (m *memIter) Close() error  { return nil }
