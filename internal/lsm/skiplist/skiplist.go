// Package skiplist implements the self-sorting in-memory structure backing
// the memtable. Writers hold an external lock (the DB write path is
// group-committed); readers are concurrent with writers thanks to
// atomically published next pointers, mirroring LevelDB's memtable contract.
package skiplist

import "sync/atomic"

const (
	maxHeight = 12
	branching = 4 // a power of two: randomHeight reads it as a bit mask

	// Nodes and tower links are carved from slabs that start at minSlab
	// entries and double to maxSlab, so a near-empty list stays small and a
	// full one allocates once per several hundred inserts.
	minSlab = 32
	maxSlab = 1024
)

// node is a skiplist node. next pointers are atomic so readers never observe
// a half-linked node.
type node struct {
	key   []byte
	value []byte
	next  []atomic.Pointer[node]
}

// List is a skiplist keyed by byte slices under a caller-supplied comparator.
type List struct {
	cmp    func(a, b []byte) int
	head   *node
	height atomic.Int32
	size   atomic.Int64
	count  atomic.Int64

	// Writer-owned state (Insert is single-writer by contract): the slabs new
	// nodes and towers are carved from, and the xorshift state behind
	// randomHeight. Readers reach slab memory only through published next
	// pointers, never through these slices. The slabs live as long as the list.
	nodes []node
	links []atomic.Pointer[node]
	rnd   uint64
}

// New returns an empty list ordered by cmp.
func New(cmp func(a, b []byte) int) *List {
	head := &node{next: make([]atomic.Pointer[node], maxHeight)}
	// A constant seed: a given insert sequence always builds the same towers.
	l := &List{cmp: cmp, head: head, rnd: 0xdecaf}
	l.height.Store(1)
	return l
}

// randomHeight draws a tower height: h with probability branching^-(h-1).
func (l *List) randomHeight() int {
	l.rnd ^= l.rnd << 13
	l.rnd ^= l.rnd >> 7
	l.rnd ^= l.rnd << 17
	// xorshift64*: the multiply scrambles the weak low bits; use the high ones.
	x := (l.rnd * 0x2545F4914F6CDD1D) >> 32
	h := 1
	for h < maxHeight && x&(branching-1) == 0 {
		h++
		x /= branching
	}
	return h
}

// nextSlab is the size of the slab that follows one of n entries.
func nextSlab(n int) int { return min(max(2*n, minSlab), maxSlab) }

// newNode carves a node with an h-link tower from the slabs.
func (l *List) newNode(key, value []byte, h int) *node {
	if len(l.nodes) == cap(l.nodes) {
		l.nodes = make([]node, 0, nextSlab(cap(l.nodes)))
	}
	if len(l.links)+h > cap(l.links) {
		l.links = make([]atomic.Pointer[node], 0, nextSlab(cap(l.links)))
	}
	at := len(l.links)
	l.links = l.links[:at+h]
	l.nodes = append(l.nodes, node{key: key, value: value, next: l.links[at : at+h : at+h]})
	return &l.nodes[len(l.nodes)-1]
}

// findGreaterOrEqual returns the first node with key >= key, filling prev
// with the predecessor at every level when prev is non-nil.
func (l *List) findGreaterOrEqual(key []byte, prev *[maxHeight]*node) *node {
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && l.cmp(next.key, key) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// Insert adds key with value. Keys must be unique (the memtable guarantees
// this by embedding a fresh sequence number in every internal key). The
// caller must serialize Insert calls.
func (l *List) Insert(key, value []byte) {
	var prev [maxHeight]*node
	l.findGreaterOrEqual(key, &prev)

	h := l.randomHeight()
	if h > int(l.height.Load()) {
		for i := int(l.height.Load()); i < h; i++ {
			prev[i] = l.head
		}
		l.height.Store(int32(h))
	}

	n := l.newNode(key, value, h)
	for i := 0; i < h; i++ {
		n.next[i].Store(prev[i].next[i].Load())
		prev[i].next[i].Store(n)
	}
	l.size.Add(int64(len(key) + len(value)))
	l.count.Add(1)
}

// ApproximateSize returns the total bytes of keys and values inserted.
func (l *List) ApproximateSize() int64 { return l.size.Load() }

// Len returns the number of entries.
func (l *List) Len() int { return int(l.count.Load()) }

// Iterator walks the list in key order. It is valid only while the list is
// live; it tolerates concurrent inserts.
type Iterator struct {
	list *List
	n    *node
}

// NewIterator returns an iterator positioned before the first entry.
func (l *List) NewIterator() *Iterator { return &Iterator{list: l} }

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current key. Valid only when Valid() is true.
func (it *Iterator) Key() []byte { return it.n.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.n.value }

// First positions at the smallest entry.
func (it *Iterator) First() { it.n = it.list.head.next[0].Load() }

// Next advances to the following entry.
func (it *Iterator) Next() { it.n = it.n.next[0].Load() }

// SeekGE positions at the first entry with key >= target.
func (it *Iterator) SeekGE(target []byte) {
	it.n = it.list.findGreaterOrEqual(target, nil)
}
