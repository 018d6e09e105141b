package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shield/internal/crypt"
	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// trackingWrapper seals SSTs like detEncWrapper (other kinds pass through, so
// a DB can run on it) and keeps the ledger a real wrapper keeps: one DEK-ID
// per SST it wrapped, struck off by FileDeleted. It can fail the n-th
// WrapCreate of an SST, before registering anything.
type trackingWrapper struct {
	mu       sync.Mutex
	minted   int
	live     map[string]string // SST name -> DEK-ID
	failFrom int               // SST WrapCreate calls left before they start failing; < 0 never
}

var errWrapCreate = errors.New("injected WrapCreate failure")

func newTrackingWrapper() *trackingWrapper {
	return &trackingWrapper{live: make(map[string]string), failFrom: -1}
}

func (w *trackingWrapper) WrapCreate(name string, kind FileKind, f vfs.WritableFile) (vfs.WritableFile, string, error) {
	if kind != FileKindSST {
		return f, "", nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failFrom == 0 {
		return nil, "", errWrapCreate
	}
	if w.failFrom > 0 {
		w.failFrom--
	}
	w.minted++
	id := fmt.Sprintf("dek-%d", w.minted)
	w.live[name] = id
	// Two sealing goroutines per writer: an aborted output must stop them.
	return crypt.NewSealedWriter(f, detSealer(), crypt.SealedBlockSize, 2), id, nil
}

func (w *trackingWrapper) WrapOpen(_ string, kind FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	if kind != FileKindSST {
		return f, nil
	}
	return crypt.NewSealedReaderAt(f, detSealer(), 0)
}

func (w *trackingWrapper) WrapOpenSequential(_ string, _ FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error) {
	return f, nil
}

func (w *trackingWrapper) FileDeleted(name, dekID string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.live[name] == dekID {
		delete(w.live, name)
	}
}

func (w *trackingWrapper) registered() map[string]string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return maps.Clone(w.live)
}

func (w *trackingWrapper) failAfter(n int) {
	w.mu.Lock()
	w.failFrom = n
	w.mu.Unlock()
}

// sstNames lists the SSTs in dir.
func sstNames(t *testing.T, fs vfs.FS, dir string) []string {
	t.Helper()
	entries, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if kind, _, ok := parseFileName(e.Name); ok && kind == FileKindSST {
			names = append(names, e.Name)
		}
	}
	return names
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the failed output:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSSTOutputFailurePoints injects a failure at every step of the one SST
// output path — the raw create, WrapCreate, a write into the table, Finish's
// sync and the directory sync — under a flush and under a three-shard
// compaction. Whatever the step, the failed job leaves no file and no DEK
// registration behind, what it was built from (the memtable, the input
// tables) is still there to build it again, and no goroutine outlives it.
// skip is how many operations of the kind succeed first: a compaction gets
// two where it has that many, so that some shards hold finished outputs when
// the failure lands.
func TestSSTOutputFailurePoints(t *testing.T) {
	points := []struct {
		name   string
		inject func(fault *vfs.FaultFS, w *trackingWrapper, skip int) *vfs.FaultRule
		want   error
		// The skips that reach the flush's and the compaction's own operation.
		flushSkip, compactSkip int
	}{
		{name: "fs.Create", want: vfs.ErrInjected, compactSkip: 2,
			inject: func(fault *vfs.FaultFS, _ *trackingWrapper, skip int) *vfs.FaultRule {
				return fault.Inject(vfs.FaultRule{Op: vfs.FaultCreate, Path: ".sst", After: skip})
			}},
		{name: "WrapCreate", want: errWrapCreate, compactSkip: 2,
			inject: func(_ *vfs.FaultFS, w *trackingWrapper, skip int) *vfs.FaultRule {
				w.failAfter(skip)
				return nil
			}},
		// The ENOSPC of a full disk, partway into the table.
		{name: "k-th Write", want: vfs.ErrNoSpace, flushSkip: 2, compactSkip: 2,
			inject: func(fault *vfs.FaultFS, _ *trackingWrapper, skip int) *vfs.FaultRule {
				return fault.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: ".sst", After: skip + 1, Err: vfs.ErrNoSpace})
			}},
		{name: "Finish", want: vfs.ErrInjected, compactSkip: 2,
			inject: func(fault *vfs.FaultFS, _ *trackingWrapper, skip int) *vfs.FaultRule {
				return fault.Inject(vfs.FaultRule{Op: vfs.FaultSync, Path: ".sst", After: skip})
			}},
		// A flush's directory sync is the second of its Flush call: rotating
		// the memtable syncs the new WAL's entry first. A job has one.
		{name: "SyncDir", want: vfs.ErrInjected, flushSkip: 1,
			inject: func(fault *vfs.FaultFS, _ *trackingWrapper, skip int) *vfs.FaultRule {
				return fault.Inject(vfs.FaultRule{Op: vfs.FaultSyncDir, After: skip})
			}},
	}

	for _, p := range points {
		t.Run("flush/"+p.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			fault := vfs.NewFault(vfs.NewMem(), 1)
			w := newTrackingWrapper()
			opts := Options{FS: fault, Wrapper: w, MemtableSize: 1 << 20, L0CompactionTrigger: 100}
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for i := 0; i < 200; i++ {
				k, v := fmt.Sprintf("k%04d", i), fmt.Sprintf("v%04d-%0100d", i, i)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}

			rule := p.inject(fault, w, p.flushSkip)
			if err := db.Flush(); !errors.Is(err, p.want) {
				t.Fatalf("Flush = %v, want %v", err, p.want)
			}
			if rule != nil && fault.Fired(rule) != 1 {
				t.Fatalf("rule fired %d times, want once", fault.Fired(rule))
			}
			if left := sstNames(t, fault, "db"); len(left) != 0 {
				t.Fatalf("failed flush left %v", left)
			}
			if reg := w.registered(); len(reg) != 0 {
				t.Fatalf("failed flush left DEKs registered: %v", reg)
			}
			// The memtable is retained: still readable now, and (it is in the
			// WAL) flushable once the fault has cleared and the DB is reopened.
			for k, v := range want {
				if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
					t.Fatalf("Get(%s) after the failed flush = %q, %v", k, got, err)
				}
			}
			_ = db.Close() // degraded: Close may report the poisoned state
			waitGoroutines(t, goroutines)

			fault.ClearRules()
			w.failAfter(-1)
			db, err = Open("db", opts)
			if err != nil {
				t.Fatalf("reopen after the fault cleared: %v", err)
			}
			defer db.Close()
			if len(sstNames(t, fault, "db")) == 0 || len(w.registered()) == 0 {
				t.Fatal("recovery flushed nothing")
			}
			for k, v := range want {
				if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
					t.Fatalf("Get(%s) after reopen = %q, %v", k, got, err)
				}
			}
		})

		t.Run("compaction/"+p.name, func(t *testing.T) {
			fault := vfs.NewFault(vfs.NewMem(), 1)
			w := newTrackingWrapper()
			job := twoLevelJob(t, fault, w)
			filesBefore, dekBefore := sstNames(t, fault, job.Dir), w.registered()
			inKeys, _ := readJobOutputs(t, fault, w, job.Dir, append(job.Inputs[0].Files, job.Inputs[1].Files...))
			goroutines := runtime.NumGoroutine()

			rule := p.inject(fault, w, p.compactSkip)
			res, err := RunCompaction(fault, w, job, numbersFrom(300))
			if !errors.Is(err, p.want) {
				t.Fatalf("RunCompaction = %v, want %v", err, p.want)
			}
			if len(res.Outputs) != 0 {
				t.Fatalf("failed job reports %d outputs, want none", len(res.Outputs))
			}
			if rule != nil && fault.Fired(rule) == 0 {
				t.Fatal("rule never fired")
			}
			waitGoroutines(t, goroutines)
			if after := sstNames(t, fault, job.Dir); fmt.Sprint(after) != fmt.Sprint(filesBefore) {
				t.Fatalf("aborted job changed the directory:\nbefore %v\nafter  %v", filesBefore, after)
			}
			if after := w.registered(); !maps.Equal(after, dekBefore) {
				t.Fatalf("aborted job changed the DEK registrations:\nbefore %v\nafter  %v", dekBefore, after)
			}

			// The inputs are retained and whole: the same job now succeeds.
			fault.ClearRules()
			w.failAfter(-1)
			res, err = RunCompaction(fault, w, job, numbersFrom(300))
			if err != nil {
				t.Fatalf("retry after the fault cleared: %v", err)
			}
			outKeys, _ := readJobOutputs(t, fault, w, job.Dir, res.Outputs)
			if len(inKeys) != 600 || len(outKeys) != 300 {
				t.Fatalf("inputs hold %d records and the retry wrote %d, want 600 and 300", len(inKeys), len(outKeys))
			}
		})
	}
}

// detEncWrapper seals every SST under one fixed DEK and nonce prefix so two
// runs over the same inputs produce comparable ciphertext regardless of
// output file numbers. Test-only: real deployments derive a fresh DEK and
// prefix per file.
type detEncWrapper struct{}

func detSealer() *crypt.Sealer {
	s, err := crypt.NewSealer(crypt.DEK{0x42, 0x17, 0x99, 0x03, 0x42, 0x17, 0x99, 0x03,
		0x42, 0x17, 0x99, 0x03, 0x42, 0x17, 0x99, 0x03}, []byte("detnonce"), nil)
	if err != nil {
		panic(err)
	}
	return s
}

func (w detEncWrapper) WrapCreate(_ string, _ FileKind, f vfs.WritableFile) (vfs.WritableFile, string, error) {
	return crypt.NewSealedWriter(f, detSealer(), crypt.SealedBlockSize, 0), "det", nil
}

func (w detEncWrapper) WrapOpen(_ string, _ FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	return crypt.NewSealedReaderAt(f, detSealer(), 0)
}

func (w detEncWrapper) WrapOpenSequential(_ string, _ FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error) {
	return f, nil
}

func (w detEncWrapper) FileDeleted(string, string) {}

var jobTableOptions = sstable.WriterOptions{BlockSize: 4096}

// writeInputSST builds one input table holding keys [lo, hi) at seq,
// returning its metadata.
func writeInputSST(t *testing.T, fs vfs.FS, wrapper FileWrapper, dir string, fileNum uint64, lo, hi int, seq base.SeqNum) manifest.FileMetadata {
	t.Helper()
	out, err := createSSTOutput(fs, wrapper, dir, fileNum, jobTableOptions)
	if err != nil {
		t.Fatal(err)
	}
	for k := lo; k < hi; k++ {
		ikey := base.MakeInternalKey([]byte(fmt.Sprintf("key-%06d", k)), seq, base.KindSet)
		val := []byte(fmt.Sprintf("val-%06d-seq-%d-%s", k, seq, bytes.Repeat([]byte("x"), 80)))
		if err := out.w.Add(ikey, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.finish(); err != nil {
		t.Fatal(err)
	}
	return out.meta
}

// numbersFrom is a test's file-number allocator: first, first+1, ….
func numbersFrom(first uint64) func() (uint64, error) {
	var next atomic.Uint64
	next.Store(first)
	return func() (uint64, error) { return next.Add(1) - 1, nil }
}

// twoLevelJob builds a two-level job: three L1 files (newer) overlapping
// two L2 files (older), small target size so the merge cuts many outputs.
func twoLevelJob(t *testing.T, fs vfs.FS, wrapper FileWrapper) CompactionJob {
	t.Helper()
	const dir = "db"
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	var l1, l2 []manifest.FileMetadata
	l1 = append(l1, writeInputSST(t, fs, wrapper, dir, 11, 0, 100, 200))
	l1 = append(l1, writeInputSST(t, fs, wrapper, dir, 12, 100, 200, 201))
	l1 = append(l1, writeInputSST(t, fs, wrapper, dir, 13, 200, 300, 202))
	l2 = append(l2, writeInputSST(t, fs, wrapper, dir, 21, 0, 150, 100))
	l2 = append(l2, writeInputSST(t, fs, wrapper, dir, 22, 150, 300, 101))
	return CompactionJob{
		Dir:              dir,
		Inputs:           []JobLevel{{Level: 1, Files: l1}, {Level: 2, Files: l2}},
		OutputLevel:      2,
		Bottommost:       true,
		SmallestSnapshot: 1000,
		TargetFileSize:   2 << 10,
		WriterOptions:    jobTableOptions,
	}
}

// readJobOutputs decrypts and iterates every output, returning the
// concatenated internal key/value stream (outputs are key-ordered).
func readJobOutputs(t *testing.T, fs vfs.FS, wrapper FileWrapper, dir string, outputs []manifest.FileMetadata) (keys, vals [][]byte) {
	t.Helper()
	for _, out := range outputs {
		name := sstFileName(dir, out.FileNum)
		raw, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := wrapper.WrapOpen(name, FileKindSST, raw)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sstable.NewReader(wrapped, sstable.ReaderOptions{FileNum: out.FileNum})
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIter()
		for ok := it.First(); ok; ok = it.Next() {
			keys = append(keys, append([]byte(nil), it.Key()...))
			vals = append(vals, append([]byte(nil), it.Value()...))
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	return keys, vals
}
