package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

// slowSyncFS delays WAL fsyncs so concurrent writers pile up behind the
// commit leader — the deterministic way to make coalescing happen in a test
// without depending on scheduler luck.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
}

func (f *slowSyncFS) Create(name string) (vfs.WritableFile, error) {
	w, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(name, ".log") {
		return w, nil
	}
	return &slowSyncFile{WritableFile: w, delay: f.delay}, nil
}

type slowSyncFile struct {
	vfs.WritableFile
	delay time.Duration
}

func (f *slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.WritableFile.Sync()
}

// groupRecorder collects what the commit pipeline reports through the test
// hook: one entry per committed group, with the user keys decoded out of the
// group's (aliased, leader-owned) WAL record.
type groupRecorder struct {
	mu     sync.Mutex
	sizes  []int
	ranges [][2]base.SeqNum
	keys   [][]string
}

func (g *groupRecorder) hook(size int, first, last base.SeqNum, rec []byte) {
	var ks []string
	err := decodeBatch(rec, func(_ base.SeqNum, _ base.Kind, key, _ []byte) error {
		ks = append(ks, string(key))
		return nil
	})
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		// Surface through the size slot; the test asserts on it.
		g.sizes = append(g.sizes, -1)
		return
	}
	g.sizes = append(g.sizes, size)
	g.ranges = append(g.ranges, [2]base.SeqNum{first, last})
	g.keys = append(g.keys, ks)
}

// TestGroupCommitCoalescing is the end-to-end group-commit check: with many
// concurrent synced writers, the engine must coalesce commits so that
// wal_syncs stays strictly below writes (the group-commit ratio < 1), at
// least one group must actually hold multiple writers, and every acked write
// must read back.
func TestGroupCommitCoalescing(t *testing.T) {
	fs := &slowSyncFS{FS: vfs.NewMem(), delay: 200 * time.Microsecond}
	opts := testOptions(fs)
	opts.SyncWrites = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rec := &groupRecorder{}
	db.commitHook = rec.hook

	const writers, perWriter = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				if err := db.Put(k, []byte(fmt.Sprintf("v%d-%d", w, i))); err != nil {
					t.Errorf("writer %d put %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	m := db.Metrics()
	if m.Writes != writers*perWriter {
		t.Fatalf("Writes = %d, want %d", m.Writes, writers*perWriter)
	}
	if m.WALSyncs >= m.Writes {
		t.Fatalf("wal_syncs = %d not below writes = %d: no coalescing happened", m.WALSyncs, m.Writes)
	}
	if r := m.GroupCommitRatio(); r >= 1 {
		t.Fatalf("group-commit ratio = %.3f, want < 1", r)
	}
	rec.mu.Lock()
	maxGroup, totalWriters := 0, 0
	for _, s := range rec.sizes {
		if s < 0 {
			rec.mu.Unlock()
			t.Fatal("commit hook saw an undecodable group record")
		}
		if s > maxGroup {
			maxGroup = s
		}
		totalWriters += s
	}
	rec.mu.Unlock()
	if maxGroup < 2 {
		t.Fatalf("largest commit group = %d, want >= 2", maxGroup)
	}
	if totalWriters != writers*perWriter {
		t.Fatalf("groups covered %d writers, want %d", totalWriters, writers*perWriter)
	}
	t.Logf("ratio=%.3f syncs=%d writes=%d maxGroup=%d", m.GroupCommitRatio(), m.WALSyncs, m.Writes, maxGroup)

	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := []byte(fmt.Sprintf("w%02d-%04d", w, i))
			v, err := db.Get(k)
			if err != nil {
				t.Fatalf("Get(%s): %v", k, err)
			}
			if want := fmt.Sprintf("v%d-%d", w, i); string(v) != want {
				t.Fatalf("Get(%s) = %q, want %q", k, v, want)
			}
		}
	}
}

// TestConcurrentCommitModelEquivalence is the concurrent-commit property
// test: N goroutine writers (plus a flusher) race through the pipeline while
// each checks read-your-writes after every acked Put; afterwards the DB must
// hold exactly the union of all acked writes (none lost, none invented), the
// committed groups must partition the sequence space contiguously (no
// duplicated or reordered acks), and a reopen must recover the same state.
func TestConcurrentCommitModelEquivalence(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	opts.SyncWrites = true
	opts.MemtableSize = 8 << 10 // rotate often: exercise the rotation barrier
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := &groupRecorder{}
	db.commitHook = rec.hook

	const writers, perWriter = 6, 150
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		modelMu sync.Mutex
	)
	model := make(map[string]string)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%02d-%04d", w, i)
				v := fmt.Sprintf("val-%d-%d", w, i)
				if i%7 == 3 {
					// Mix multi-record batches through the same pipeline.
					b := NewBatch()
					b.Put([]byte(k), []byte(v))
					b.Delete([]byte(fmt.Sprintf("w%02d-%04d", w, i-1)))
					if err := db.Write(b, true); err != nil {
						t.Errorf("writer %d batch %d: %v", w, i, err)
						return
					}
					modelMu.Lock()
					model[k] = v
					delete(model, fmt.Sprintf("w%02d-%04d", w, i-1))
					modelMu.Unlock()
				} else {
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Errorf("writer %d put %d: %v", w, i, err)
						return
					}
					modelMu.Lock()
					model[k] = v
					modelMu.Unlock()
				}
				// Read-your-writes: the ack means the write is applied.
				got, err := db.Get([]byte(k))
				if err != nil || string(got) != v {
					t.Errorf("writer %d: read-your-writes Get(%s) = %q,%v want %q", w, k, got, err, v)
					return
				}
			}
		}(w)
	}
	// A concurrent flusher forces rotation waiters through the pipeline
	// between groups.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := db.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish first; then stop the flusher.
	for w := 0; ; w++ {
		rec.mu.Lock()
		covered := 0
		for _, s := range rec.sizes {
			covered += s
		}
		rec.mu.Unlock()
		if covered >= writers*perWriter || t.Failed() {
			break
		}
		time.Sleep(5 * time.Millisecond)
		if w > 4000 {
			t.Fatal("writers did not finish")
		}
	}
	stop.Store(true)
	<-done
	if t.Failed() {
		db.Close()
		return
	}

	// Sequence-space contiguity: sorted by first seq, the committed groups
	// must tile [1, lastSeq] with no gap or overlap — the pipeline never
	// drops, duplicates, or reorders an acked commit.
	rec.mu.Lock()
	ranges := append([][2]base.SeqNum(nil), rec.ranges...)
	rec.mu.Unlock()
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	next := base.SeqNum(1)
	for i, r := range ranges {
		if r[0] != next {
			t.Fatalf("group %d starts at seq %d, want %d (gap or overlap)", i, r[0], next)
		}
		if r[1] < r[0] {
			t.Fatalf("group %d has inverted range [%d,%d]", i, r[0], r[1])
		}
		next = r[1] + 1
	}
	if got := base.SeqNum(db.lastSeq.Load()) + 1; next != got {
		t.Fatalf("groups cover seqs up to %d, engine lastSeq+1 = %d", next, got)
	}

	verify := func(db *DB, stage string) {
		it, err := db.NewIter()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		seen := 0
		for ok := it.First(); ok; ok = it.Next() {
			want, exists := model[string(it.Key())]
			if !exists {
				t.Fatalf("%s: iterator yielded unacked key %q", stage, it.Key())
			}
			if string(it.Value()) != want {
				t.Fatalf("%s: %q = %q, want %q", stage, it.Key(), it.Value(), want)
			}
			seen++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if seen != len(model) {
			t.Fatalf("%s: iterator saw %d keys, model has %d", stage, seen, len(model))
		}
	}
	verify(db, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verify(db2, "reopened")
}

// armedFaultFS fails every WAL sync once armed; writes keep succeeding, so
// the failure surfaces exactly at the commit pipeline's sync step.
type armedFaultFS struct {
	vfs.FS
	armed atomic.Bool
}

func (f *armedFaultFS) Create(name string) (vfs.WritableFile, error) {
	w, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(name, ".log") {
		return w, nil
	}
	return &armedFaultFile{WritableFile: w, fs: f}, nil
}

type armedFaultFile struct {
	vfs.WritableFile
	fs *armedFaultFS
}

func (f *armedFaultFile) Sync() error {
	if f.fs.armed.Load() {
		return errInjected
	}
	time.Sleep(100 * time.Microsecond) // widen the grouping window
	return f.WritableFile.Sync()
}

// TestCommitSyncFailureFailsWholeGroup: when the group's single fsync fails,
// every writer in the group gets the error — no writer in a failed group is
// ever acked — and the DB is poisoned for subsequent writes.
func TestCommitSyncFailureFailsWholeGroup(t *testing.T) {
	fs := &armedFaultFS{FS: vfs.NewMem()}
	opts := testOptions(fs)
	opts.SyncWrites = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rec := &groupRecorder{}
	db.commitHook = rec.hook

	const writers, perWriter = 8, 40
	var (
		wg    sync.WaitGroup
		acked sync.Map // key -> true, only for nil-error Puts
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if w == 0 && i == perWriter/2 {
					fs.armed.Store(true)
				}
				k := fmt.Sprintf("w%02d-%04d", w, i)
				if err := db.Put([]byte(k), []byte("v")); err != nil {
					if !errors.Is(err, ErrDegraded) {
						t.Errorf("writer %d: error %v does not wrap ErrDegraded", w, err)
					}
					return
				}
				acked.Store(k, true)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The poison sticks.
	if err := db.Put([]byte("after"), []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("post-failure Put = %v, want ErrDegraded", err)
	}

	// The hook fires only for groups that committed fully; every acked key
	// must belong to one of them, and no key from a failed group was acked.
	committed := make(map[string]bool)
	rec.mu.Lock()
	for _, ks := range rec.keys {
		for _, k := range ks {
			committed[k] = true
		}
	}
	rec.mu.Unlock()
	acked.Range(func(k, _ any) bool {
		if !committed[k.(string)] {
			t.Errorf("key %s was acked but its group never committed", k)
		}
		return true
	})
}

// TestFlushRotationCommitsAlone: a rotation request entering the pipeline
// between writer groups must observe a consistent memtable boundary — writes
// acked before the Flush land in the flushed table, writes after it in the
// new memtable — with concurrent writers hammering the pipeline throughout.
func TestFlushRotationCommitsAlone(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := db.Put([]byte(fmt.Sprintf("bg%d-%06d", w, i)), []byte("x")); err != nil {
					t.Errorf("bg writer: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("pre-%03d", i))
		if err := db.Put(k, []byte("before")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		v, err := db.Get(k)
		if err != nil || !bytes.Equal(v, []byte("before")) {
			t.Fatalf("Get(%s) after flush = %q,%v", k, v, err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestPooledPutBatchReuseKeepsHookCopy: Put and Delete take their batch from
// a pool, so the record a commit hook is shown (for a single-writer group,
// the batch's own bytes) is overwritten by the very next Put. The hook
// contract has always been "copy what you keep"; this pins that a copy is
// enough (each kept record still decodes to its own operation after the pool
// has recycled the batch many times over) and that a caller-owned batch
// passed to Write is left exactly as the caller built it.
func TestPooledPutBatchReuseKeepsHookCopy(t *testing.T) {
	db, err := Open("db", testOptions(vfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var kept [][]byte
	db.commitHook = func(_ int, _, _ base.SeqNum, rec []byte) {
		kept = append(kept, append([]byte(nil), rec...))
	}

	const ops = 300
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	val := func(i int) string { return fmt.Sprintf("value-%04d-%0*d", i, i%97, i) }
	for i := 0; i < ops; i++ {
		if i%10 == 9 {
			err = db.Delete([]byte(key(i - 1)))
		} else {
			err = db.Put([]byte(key(i)), []byte(val(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	own := NewBatch()
	own.Put([]byte("mine"), []byte("untouched"))
	ownBytes := append([]byte(nil), own.data[batchHeaderLen:]...)
	if err := db.Write(own, false); err != nil {
		t.Fatal(err)
	}
	if own.Count() != 1 || !bytes.Equal(own.data[batchHeaderLen:], ownBytes) {
		t.Fatal("Write changed the body of a caller-owned batch")
	}

	if len(kept) != ops+1 {
		t.Fatalf("hook saw %d groups, want %d single-writer groups", len(kept), ops+1)
	}
	for i, rec := range kept[:ops] {
		err := decodeBatch(rec, func(seq base.SeqNum, kind base.Kind, k, v []byte) error {
			wantKind, wantKey, wantVal := base.KindSet, key(i), val(i)
			if i%10 == 9 {
				wantKind, wantKey, wantVal = base.KindDelete, key(i-1), ""
			}
			if seq != base.SeqNum(i+1) || kind != wantKind || string(k) != wantKey || string(v) != wantVal {
				t.Errorf("kept record %d decodes to seq=%d kind=%v key=%q value=%q", i, seq, kind, k, v)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("kept record %d: %v", i, err)
		}
	}
}
