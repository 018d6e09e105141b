// Package skiplist implements the self-sorting in-memory structure backing
// the memtable: an arena skiplist of internal keys. Writers hold an external
// lock (the DB write path is group-committed); readers are concurrent with
// writers thanks to atomically published links, mirroring LevelDB's memtable
// contract.
//
// # The arena
//
// Every entry lives in one place, 8-byte aligned in an arena chunk:
//
//	header{keyLen, valLen, height} ‖ height × uint32 link ‖ internal key ‖ value
//
// so a search step reads the link, the next entry's header and its key from
// adjacent bytes. Chunks start at minChunk bytes and double to maxChunk, so a
// near-empty list (every reopen builds one) stays small; an entry larger than
// maxChunk gets a chunk of its own. Nothing is freed piecemeal: chunks live as
// long as the list and go together when it is dropped.
//
// A link is a uint32 reference (chunk index ‖ offset / 8), never a Go
// pointer: chunks are pointer-free memory the GC does not scan, and no Go
// pointer may live in memory the GC does not scan. The invariants that make
// the unsafe code below sound:
//
//   - The only Go pointers to a chunk are its slot in the chunk table, the
//     iterators' cursors and the Key/Value views handed out. Each points into
//     the chunk's allocation, so it keeps the chunk alive for as long as it
//     is held, list dropped or not.
//   - A reader resolves a reference through the chunk table it last loaded,
//     and reloads the table when the reference names a chunk beyond it. The
//     writer publishes the table (an atomic store) before the first link that
//     names a new chunk, so a reader that loaded such a link loads a table
//     that names its chunk.
//   - An entry's bytes are written before the atomic link store that
//     publishes it and are never written again; only its links change, and
//     only through atomic stores.
//   - Every pointer computed stays inside one chunk: offsets come from the
//     writer's own allocation, and views are clipped to their entry.
package skiplist

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
	"unsafe"

	"shield/internal/lsm/base"
)

const (
	maxHeight = 12
	branching = 4 // a power of two: randomHeight reads it as a bit mask

	minChunk = 4 << 10
	maxChunk = 256 << 10

	// A reference is chunk index << offBits | offset / align. Offsets inside a
	// shared chunk are below maxChunk; an entry with a chunk of its own sits
	// at offset 0, so its size does not count against offBits.
	align     = 8
	offBits   = 15 // maxChunk / align == 1 << offBits
	offMask   = 1<<offBits - 1
	maxChunks = 1 << (32 - offBits)

	hdrLen  = int(unsafe.Sizeof(header{}))
	linkLen = 4
)

// header opens every entry. height is the number of links that follow it.
type header struct {
	keyLen, valLen, height uint32
}

// List is a skiplist of internal keys ordered by user key ascending, then
// trailer (sequence number and kind) descending: base.CompareInternal's
// order, without a comparator call.
type List struct {
	chunks atomic.Pointer[[]unsafe.Pointer] // the published chunk table
	height atomic.Int32
	size   atomic.Int64
	count  atomic.Int64

	// head is the entry before every other: a header's room, then maxHeight
	// links. No link names it, so reference 0 means "none".
	head [hdrLen/linkLen + maxHeight]uint32

	// Writer-owned state (Insert is single-writer by contract): the chunk
	// table (slot 0 is a placeholder, so no entry has reference 0), the
	// chunk entries are carved from and how much of it is used, and the
	// xorshift state behind randomHeight.
	tab             []unsafe.Pointer
	cur             uint32
	used, chunkSize int
	rnd             uint64
}

// New returns an empty list. Its first chunk is allocated by the first Insert.
func New() *List {
	// A constant seed: a given insert sequence always builds the same towers.
	l := &List{tab: []unsafe.Pointer{nil}, rnd: 0xdecaf}
	l.height.Store(1)
	return l
}

func (l *List) headEntry() unsafe.Pointer { return unsafe.Pointer(&l.head) }

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

// alloc returns the reference and address of n fresh zeroed bytes of arena.
func (l *List) alloc(n int) (uint32, unsafe.Pointer) {
	n = (n + align - 1) &^ (align - 1)
	if n > maxChunk {
		c := l.newChunk(n)
		return c << offBits, l.tab[c]
	}
	if l.used+n > l.chunkSize {
		size := min(max(2*l.chunkSize, minChunk), maxChunk)
		for size < n {
			size *= 2
		}
		l.cur, l.used, l.chunkSize = l.newChunk(size), 0, size
	}
	off := l.used
	l.used += n
	return l.cur<<offBits | uint32(off/align), unsafe.Add(l.tab[l.cur], off)
}

// newChunk adds a chunk of size bytes (a multiple of align) to the table,
// publishes the table, and returns the chunk's index.
func (l *List) newChunk(size int) uint32 {
	if len(l.tab) == maxChunks {
		panic("skiplist: the arena holds more chunks than a reference can name")
	}
	// []uint64: aligned, and allocated as memory the GC does not scan.
	l.tab = append(l.tab, unsafe.Pointer(unsafe.SliceData(make([]uint64, size/align))))
	// Readers holding an older table read only slots below its length, and
	// append writes only beyond it, so the backing array may be shared.
	tab := l.tab
	l.chunks.Store(&tab)
	return uint32(len(l.tab) - 1)
}

// Insert adds a copy of the entry (userKey ‖ trailer, value). Internal keys
// must be unique (the memtable guarantees this with a fresh sequence number
// per record). The caller must serialize Insert calls.
func (l *List) Insert(userKey []byte, trailer uint64, value []byte) {
	kl := len(userKey) + base.TrailerLen
	if uint64(kl) > math.MaxUint32 || uint64(len(value)) > math.MaxUint32 {
		panic("skiplist: key or value longer than 4 GiB")
	}
	h := l.randomHeight()
	at := hdrLen + linkLen*h
	ref, e := l.alloc(at + kl + len(value))
	*(*header)(e) = header{keyLen: uint32(kl), valLen: uint32(len(value)), height: uint32(h)}
	kv := unsafe.Slice((*byte)(unsafe.Add(e, at)), kl+len(value))
	copy(kv, userKey)
	binary.LittleEndian.PutUint64(kv[len(userKey):], trailer)
	copy(kv[kl:], value)

	var prev [maxHeight]unsafe.Pointer
	v := view{l: l, tab: l.tab}
	v.seek(userKey, trailer, &prev)
	if cur := int(l.height.Load()); h > cur {
		for i := cur; i < h; i++ {
			prev[i] = l.headEntry()
		}
		l.height.Store(int32(h))
	}
	for i := 0; i < h; i++ {
		link(e, i).Store(link(prev[i], i).Load())
		link(prev[i], i).Store(ref) // publishes the entry at level i
	}
	l.size.Add(int64(kl + len(value)))
	l.count.Add(1)
}

// ApproximateSize returns the total bytes of internal keys and values
// inserted: none of the arena's headers, links or slack, so a memtable's
// flush timing does not depend on chunk sizes.
func (l *List) ApproximateSize() int64 { return l.size.Load() }

// Len returns the number of entries.
func (l *List) Len() int { return int(l.count.Load()) }

func link(e unsafe.Pointer, i int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Add(e, hdrLen+linkLen*i))
}

// key returns entry e's internal key, its capacity clipped to its length.
func key(e unsafe.Pointer) []byte {
	h := (*header)(e)
	return unsafe.Slice((*byte)(unsafe.Add(e, hdrLen+linkLen*int(h.height))), h.keyLen)
}

// value returns entry e's value, capacity clipped. An empty value is nil, so
// no view points past the end of its entry.
func value(e unsafe.Pointer) []byte {
	h := (*header)(e)
	if h.valLen == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Add(e, hdrLen+linkLen*int(h.height)+int(h.keyLen))), h.valLen)
}

// before reports whether entry e sorts before (userKey, trailer): user keys
// ascending, then trailers descending, decoded only on a user-key tie.
func before(e unsafe.Pointer, userKey []byte, trailer uint64) bool {
	k := key(e)
	n := len(k) - base.TrailerLen
	if c := bytes.Compare(k[:n], userKey); c != 0 {
		return c < 0
	}
	return binary.LittleEndian.Uint64(k[n:]) > trailer
}

// view resolves references through the chunk table as its reader last
// loaded it.
type view struct {
	l   *List
	tab []unsafe.Pointer
}

// at returns the entry ref (non-zero) names.
func (v *view) at(ref uint32) unsafe.Pointer {
	c := ref >> offBits
	if int(c) >= len(v.tab) {
		// ref names a chunk added after v.tab was loaded; the table naming
		// it was published before ref was.
		v.tab = *v.l.chunks.Load()
	}
	return unsafe.Add(v.tab[c], int(ref&offMask)*align)
}

// next returns the entry after e at level 0, nil at the end.
func (v *view) next(e unsafe.Pointer) unsafe.Pointer {
	if ref := link(e, 0).Load(); ref != 0 {
		return v.at(ref)
	}
	return nil
}

// seek returns the first entry at or after (userKey, trailer), nil if none,
// filling prev with the predecessor at every level when prev is non-nil.
func (v *view) seek(userKey []byte, trailer uint64, prev *[maxHeight]unsafe.Pointer) unsafe.Pointer {
	x := v.l.headEntry()
	// bound is an entry already found at or after the target one level up:
	// meeting it again ends the level without a comparison.
	var bound uint32
	var boundEntry unsafe.Pointer
	level := int(v.l.height.Load()) - 1
	for {
		ref := link(x, level).Load()
		if ref != 0 && ref != bound {
			next := v.at(ref)
			if before(next, userKey, trailer) {
				x = next
				continue
			}
			bound, boundEntry = ref, next
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			if ref == 0 {
				return nil
			}
			return boundEntry
		}
		level--
	}
}

// Iterator walks the list in key order. It tolerates concurrent inserts.
type Iterator struct {
	v view
	e unsafe.Pointer
}

// NewIterator returns an iterator positioned before the first entry.
func (l *List) NewIterator() Iterator { return Iterator{v: view{l: l}} }

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.e != nil }

// Key returns the current internal key. Valid only when Valid() is true. The
// view stays valid after the list is dropped; appending to it copies.
func (it *Iterator) Key() []byte { return key(it.e) }

// Value returns the current value, under Key's terms.
func (it *Iterator) Value() []byte { return value(it.e) }

// First positions at the smallest entry.
func (it *Iterator) First() { it.e = it.v.next(it.v.l.headEntry()) }

// Next advances to the following entry.
func (it *Iterator) Next() { it.e = it.v.next(it.e) }

// SeekGE positions at the first entry at or after (userKey, trailer). With
// trailer base.MakeTrailer(seq, base.KindSet) that is userKey's newest
// record visible at seq, if the entry's user key is userKey.
func (it *Iterator) SeekGE(userKey []byte, trailer uint64) {
	it.e = it.v.seek(userKey, trailer, nil)
}
