package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"shield/internal/lsm"
)

// Outside-in tracing. Spans are recorded only by this package's decorators
// around the public seams of the stack (decor.go) and by the client loops;
// nothing inside the engine is instrumented. A span's parent is the span
// that was open on the same goroutine when it began, so work the engine
// hands to another goroutine (flush, compaction, parallel SST encryption,
// the server's connection handlers) shows up as a root of its own rather
// than under the operation that caused it.

type spanName uint8

// A file layer (crypt = the wrapped file the engine sees, vfs = the file the
// wrapper sees, srv = the file the storage node sees) records the same eight
// operations; a layer's span name is its base plus the operation.
const (
	fWrite spanName = iota
	fSync
	fClose
	fRead
	fReadSeq
	fCreate
	fOpen
	fMeta
	fileOps
)

const (
	spCrypt spanName = 0 // fCreate/fOpen here are core.wrap_create/core.wrap_open
	spVFS            = spCrypt + fileOps
	spSrv            = spVFS + fileOps
)

const (
	spOpPut spanName = spSrv + fileOps + iota
	spOpGet
	spOpBatch
	spOpReopen
	spEngineGet
	spEngineWrite
	spKDSCreate
	spKDSFetch
	spKDSRevoke
	numSpanNames
)

var spanNames = func() [numSpanNames]string {
	var n [numSpanNames]string
	ops := [fileOps]string{"write", "sync", "close", "read", "read_seq", "create", "open", "meta"}
	for i, op := range ops {
		n[spCrypt+spanName(i)] = "crypt." + op
		n[spVFS+spanName(i)] = "vfs." + op
		n[spSrv+spanName(i)] = "dstore.srv." + op
	}
	n[spCrypt+fCreate], n[spCrypt+fOpen] = "core.wrap_create", "core.wrap_open"
	n[spOpPut], n[spOpGet], n[spOpBatch], n[spOpReopen] = "op.put", "op.get", "op.batch", "op.reopen"
	n[spEngineGet], n[spEngineWrite] = "engine.get", "engine.write"
	n[spKDSCreate], n[spKDSFetch], n[spKDSRevoke] = "kds.create", "kds.fetch", "kds.revoke"
	return n
}()

func (n spanName) String() string { return spanNames[n] }

// isOp reports whether n roots a foreground tree: a client operation, or the
// engine call a server connection makes on a client's behalf.
func (n spanName) isOp() bool { return n >= spOpPut && n <= spEngineWrite }

// span is one timed call. It holds no pointers, so the preallocated buffer
// costs the garbage collector nothing to scan, and no key, value or DEK
// bytes: only names, sizes and times ever reach a span.
type span struct {
	start, end int64  // ns since tracer.epoch
	g          uint32 // goroutines numbered in order of their first span
	parent     int32  // index of the enclosing span on the same goroutine, -1 if none
	bytes      int32  // payload size for reads and writes, commands for op.batch
	name       spanName
	kind       uint8 // lsm.FileKind for file spans
}

func (s *span) dur() int64 { return s.end - s.start }

type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	stacks  sync.Map // goid -> *gstack
	nextG   atomic.Uint32
}

// gstack is the open-span stack of one goroutine. Only one goroutine at a
// time uses it, but not only one ever: the runtime recycles the g of a
// finished goroutine (the server starts one per multi-shard commit), and the
// mutex is what orders the old owner's last access before the new owner's
// first.
type gstack struct {
	mu   sync.Mutex
	id   uint32
	open []int32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// enable turns recording on or off; a nil tracer (untraced run) ignores it.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// spanRef ends the span it was returned for. The zero ref (tracing off, nil
// tracer, or buffer full) does nothing.
type spanRef struct {
	s  *span
	st *gstack
	t  *tracer
}

func (t *tracer) begin(name spanName, kind lsm.FileKind) spanRef {
	if t == nil || !t.on.Load() {
		return spanRef{}
	}
	id := t.next.Add(1) - 1
	if id >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return spanRef{}
	}
	g := goid()
	v, ok := t.stacks.Load(g)
	if !ok {
		v, _ = t.stacks.LoadOrStore(g, &gstack{id: t.nextG.Add(1), open: make([]int32, 0, 8)})
	}
	st := v.(*gstack)
	s := &t.spans[id]
	*s = span{g: st.id, parent: -1, name: name, kind: uint8(kind)}
	st.mu.Lock()
	if n := len(st.open); n > 0 {
		s.parent = st.open[n-1]
	}
	st.open = append(st.open, int32(id))
	st.mu.Unlock()
	s.start = int64(time.Since(t.epoch))
	return spanRef{s: s, st: st, t: t}
}

func (r spanRef) end(bytes int) {
	if r.s == nil {
		return
	}
	r.s.end = int64(time.Since(r.t.epoch))
	r.s.bytes = int32(bytes)
	r.st.mu.Lock()
	r.st.open = r.st.open[:len(r.st.open)-1]
	r.st.mu.Unlock()
}

// recorded returns the spans begun so far. Call it only when every traced
// goroutine is idle.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// analysis is what the metrics need from a span list: each span's self time
// (its duration minus its direct children) and the root of its tree.
type analysis struct {
	spans []span
	self  []int64
	root  []int32
}

func analyze(spans []span) *analysis {
	a := &analysis{spans: spans, self: make([]int64, len(spans)), root: make([]int32, len(spans))}
	// A parent begins before its children, so it has the smaller index and
	// one forward pass resolves every root.
	for i := range spans {
		a.self[i] += spans[i].dur()
		if p := spans[i].parent; p >= 0 {
			a.self[p] -= spans[i].dur()
			a.root[i] = a.root[p]
		} else {
			a.root[i] = int32(i)
		}
	}
	return a
}

// foreground reports whether span i ran under a client operation.
func (a *analysis) foreground(i int) bool { return a.spans[a.root[i]].name.isOp() }

// writeTrace writes spans as a JSON array, one span per line. Roots that are
// not client operations get the synthetic parent "bg:<file kind>", which is
// the paper's per-file-type breakdown of background work.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path) //shield:nofs --trace-out is a host path the user asked for; the span buffer never passed through a vfs
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "[")
	for i := range spans {
		s := &spans[i]
		parent := fmt.Sprint(s.parent)
		if s.parent < 0 && !s.name.isOp() {
			parent = fmt.Sprintf("%q", "bg:"+lsm.FileKind(s.kind).String())
		}
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"kind":%q,"start_ns":%d,"end_ns":%d,"goroutine":%d,"parent":%s,"bytes":%d}%s`+"\n",
			i, s.name.String(), lsm.FileKind(s.kind).String(), s.start, s.end, s.g, parent, s.bytes, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
