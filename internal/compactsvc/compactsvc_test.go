package compactsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"shield/internal/lsm"
	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// allocator is a test's engine-side file-number allocator: it issues next,
// next+1, … and remembers what it issued, in order.
type allocator struct {
	mu     sync.Mutex
	next   uint64
	issued []uint64
}

func numbersFrom(first uint64) *allocator { return &allocator{next: first} }

func (a *allocator) newFileNum() (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.next
	a.next++
	a.issued = append(a.issued, n)
	return n, nil
}

// nums returns what the allocator has issued so far.
func (a *allocator) nums() []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.issued)
}

// startPair stands up an orchestrator and one polling worker on fs.
func startPair(t *testing.T, fs vfs.FS) (*Orchestrator, *Worker) {
	t.Helper()
	orch, err := NewOrchestrator(fs, "127.0.0.1:0", OrchestratorConfig{LeaseTTL: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { orch.Close() })
	w := NewWorker(fs, lsm.NopWrapper{}, "w1", orch.Addr(), WorkerConfig{PollEvery: 2 * time.Millisecond})
	t.Cleanup(func() { w.Close() })
	return orch, w
}

// relay forwards TCP connections to an upstream address. While its gate is
// held no byte crosses it in either direction; cut closes every connection
// it carries.
type relay struct {
	ln   net.Listener
	gate sync.RWMutex

	mu    sync.Mutex
	conns []net.Conn
}

func startRelay(t *testing.T, upstream string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, down, up)
			r.mu.Unlock()
			go r.pipe(up, down)
			go r.pipe(down, up)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		r.cut()
	})
	return r
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) pipe(dst, src net.Conn) {
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r.gate.RLock()
			_, werr := dst.Write(buf[:n])
			r.gate.RUnlock()
			if werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (r *relay) cut() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// buildInput writes one SST on fs and returns its metadata.
func buildInput(t *testing.T, fs vfs.FS, fileNum uint64, lo, hi int) manifest.FileMetadata {
	t.Helper()
	name := fmt.Sprintf("db/%06d.sst", fileNum)
	fs.MkdirAll("db")
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := sstable.NewWriter(f, sstable.WriterOptions{})
	var smallest, largest []byte
	for i := lo; i < hi; i++ {
		ik := base.MakeInternalKey([]byte(fmt.Sprintf("k%06d", i)), base.SeqNum(fileNum*1_000_000+uint64(i)), base.KindSet)
		if smallest == nil {
			smallest = append([]byte(nil), ik...)
		}
		largest = append(largest[:0], ik...)
		if err := w.Add(ik, []byte(fmt.Sprintf("v%d-%d", fileNum, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return manifest.FileMetadata{
		FileNum:  fileNum,
		Size:     w.FileSize(),
		Smallest: append([]byte(nil), smallest...),
		Largest:  append([]byte(nil), largest...),
	}
}

func TestRemoteJobExecution(t *testing.T) {
	fs := vfs.NewMem()
	m1 := buildInput(t, fs, 1, 0, 500)
	m2 := buildInput(t, fs, 2, 250, 750)

	orch, _ := startPair(t, fs)

	job := lsm.CompactionJob{
		Dir: "db",
		Inputs: []lsm.JobLevel{
			{Level: 0, Files: []manifest.FileMetadata{m2, m1}},
		},
		OutputLevel:      1,
		Bottommost:       true,
		SmallestSnapshot: 1 << 60,
		TargetFileSize:   1 << 20,
	}
	nums := numbersFrom(10)
	res, err := orch.Compact(job, nums.newFileNum)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) == 0 {
		t.Fatal("no outputs")
	}
	if got, issued := outputNums(res), nums.nums(); !slices.Equal(got, issued) {
		t.Fatalf("outputs numbered %v, the allocator issued %v", got, issued)
	}
	if res.BytesWritten == 0 || res.BytesRead == 0 {
		t.Fatalf("accounting: %+v", res)
	}
	// 750 distinct keys survive the merge.
	raf, err := fs.Open(fmt.Sprintf("db/%06d.sst", res.Outputs[0].FileNum))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sstable.NewReader(raf, sstable.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Properties().NumEntries; got != 750 {
		t.Fatalf("merged entries %d, want 750 (duplicates dropped)", got)
	}
	// Overlap winner: file 2 (higher seq) supplies k000300.
	v, _, err := r.Get([]byte("k000300"), base.MaxSeqNum)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(v), "v2-") {
		t.Fatalf("wrong version won the merge: %q", v)
	}

	if st := orch.Stats(); st.Completed != 1 || st.Enqueued != 1 {
		t.Fatalf("orchestrator recorded %+v, want 1 enqueued and completed", st)
	}
}

func TestRemoteJobErrorPropagates(t *testing.T) {
	fs := vfs.NewMem()
	orch, _ := startPair(t, fs)

	// Job references a missing input file. The orchestrator retries a
	// non-ENOSPC execution error (it may be worker-local), so the terminal
	// error arrives only after the attempt budget is spent.
	job := lsm.CompactionJob{
		Dir: "db",
		Inputs: []lsm.JobLevel{{Level: 0, Files: []manifest.FileMetadata{{
			FileNum: 99, Size: 10,
			Smallest: base.MakeInternalKey([]byte("a"), 1, base.KindSet),
			Largest:  base.MakeInternalKey([]byte("b"), 1, base.KindSet),
		}}}},
		OutputLevel:    1,
		TargetFileSize: 1 << 20,
	}
	nums := numbersFrom(10)
	if _, err := orch.Compact(job, nums.newFileNum); err == nil {
		t.Fatal("missing-input job succeeded")
	}
	// The worker remains usable after a remote error.
	m := buildInput(t, fs, 1, 0, 10)
	job.Inputs = []lsm.JobLevel{{Level: 0, Files: []manifest.FileMetadata{m}}}
	if _, err := orch.Compact(job, nums.newFileNum); err != nil {
		t.Fatalf("worker broken after remote error: %v", err)
	}
}

func TestWorkerReconnects(t *testing.T) {
	fs := vfs.NewMem()
	m := buildInput(t, fs, 1, 0, 10)
	orch, err := NewOrchestrator(fs, "127.0.0.1:0", OrchestratorConfig{LeaseTTL: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()
	link := startRelay(t, orch.Addr())
	w := NewWorker(fs, lsm.NopWrapper{}, "w1", link.addr(), WorkerConfig{PollEvery: 2 * time.Millisecond})
	defer w.Close()

	job := lsm.CompactionJob{
		Dir:            "db",
		Inputs:         []lsm.JobLevel{{Level: 0, Files: []manifest.FileMetadata{m}}},
		OutputLevel:    1,
		TargetFileSize: 1 << 20,
	}
	nums := numbersFrom(10)
	if _, err := orch.Compact(job, nums.newFileNum); err != nil {
		t.Fatal(err)
	}
	// Cut the worker's connection; the next poll must redial.
	link.cut()
	if _, err := orch.Compact(job, nums.newFileNum); err != nil {
		t.Fatalf("worker did not recover from dropped connection: %v", err)
	}
}

// TestParentEncodedJobRunsOffloaded: a job the previous build encoded (its own
// block_size/bloom_bits_per_key/compression fields, a shard count, pinned
// boundaries, an output-number reservation) goes over the wire to a worker of
// this build, against the store that build wrote. The worker writes what this
// build's in-process executor writes of the same job, and that spans the key
// range and reads the bytes the previous build's result reports (it ran the
// job in two shards, so its outputs are cut elsewhere; lsm's
// TestParentCompactionJobGolden checks the records). The fixtures are lsm's
// (see internal/lsm/compat_test.go).
func TestParentEncodedJobRunsOffloaded(t *testing.T) {
	var job lsm.CompactionJob
	var want lsm.CompactionResult
	osfs := vfs.NewOS()
	for name, into := range map[string]any{"compaction_job.golden.json": &job, "compaction_result.golden.json": &want} {
		data, err := vfs.ReadFile(osfs, "../lsm/testdata/"+name)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatal(err)
		}
	}

	fs := parentStore(t)
	orch, _ := startPair(t, fs)
	nums := numbersFrom(7000)
	res, err := orch.Compact(job, nums.newFileNum)
	if err != nil {
		t.Fatal(err)
	}
	if got, issued := outputNums(res), nums.nums(); !sameSet(got, issued) {
		t.Fatalf("outputs numbered %v, the allocator issued %v", got, issued)
	}
	local, err := lsm.RunCompaction(parentStore(t), nil, job, numbersFrom(7000).newFileNum)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead != local.BytesRead || res.BytesWritten != local.BytesWritten || len(res.Outputs) != len(local.Outputs) {
		t.Fatalf("offloaded result %+v, the in-process one %+v", res, local)
	}
	for i, out := range res.Outputs {
		// File numbers are the allocator's; everything else is the table.
		out.FileNum = local.Outputs[i].FileNum
		if !reflect.DeepEqual(out, local.Outputs[i]) {
			t.Fatalf("output %d = %+v, the in-process one %+v", i, out, local.Outputs[i])
		}
	}
	first, last := res.Outputs[0], res.Outputs[len(res.Outputs)-1]
	wantFirst, wantLast := want.Outputs[0], want.Outputs[len(want.Outputs)-1]
	if res.BytesRead != want.BytesRead || !reflect.DeepEqual(first.Smallest, wantFirst.Smallest) || !reflect.DeepEqual(last.Largest, wantLast.Largest) {
		t.Fatalf("offloaded result %+v, the previous build's %+v", res, want)
	}
}

// parentStore copies the store the previous build wrote into db/ on a fresh
// in-memory filesystem.
func parentStore(t *testing.T) vfs.FS {
	t.Helper()
	osfs, fs := vfs.NewOS(), vfs.NewMem()
	fs.MkdirAll("db")
	entries, err := osfs.List("../lsm/testdata/parent_store")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := vfs.ReadFile(osfs, "../lsm/testdata/parent_store/"+e.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(fs, "db/"+e.Name, data); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// outputNums lists a result's output file numbers in output order.
func outputNums(res lsm.CompactionResult) []uint64 {
	nums := make([]uint64, len(res.Outputs))
	for i, out := range res.Outputs {
		nums[i] = out.FileNum
	}
	return nums
}

// sameSet reports whether a and b hold the same numbers, in any order.
func sameSet(a, b []uint64) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestLargeOffloadedJob: a job cutting far more outputs than an earlier
// build's per-attempt share of its 256 reserved file numbers (85) runs
// through an orchestrator and a worker, one granted number per output.
func TestLargeOffloadedJob(t *testing.T) {
	fs := vfs.NewMem()
	m := buildInput(t, fs, 1, 0, 5000)
	orch, _ := startPair(t, fs)

	nums := numbersFrom(10)
	res, err := orch.Compact(lsm.CompactionJob{
		Dir:            "db",
		Inputs:         []lsm.JobLevel{{Level: 0, Files: []manifest.FileMetadata{m}}},
		OutputLevel:    1,
		TargetFileSize: 1 << 10,
	}, nums.newFileNum)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) < 88 {
		t.Fatalf("%d outputs, want at least 88", len(res.Outputs))
	}
	if got, issued := outputNums(res), nums.nums(); !slices.Equal(got, issued) {
		t.Fatalf("outputs numbered %v, the allocator issued %v", got, issued)
	}
	var entries uint64
	for _, out := range res.Outputs {
		raf, err := fs.Open(lsm.TableFileName("db", out.FileNum))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sstable.NewReader(raf, sstable.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		entries += r.Properties().NumEntries
		r.Close()
	}
	if entries != 5000 {
		t.Fatalf("outputs hold %d entries, want 5000", entries)
	}
}

// silentPeer accepts one connection and reads what it sends without ever
// replying; read is closed once the first request has arrived.
func silentPeer(t *testing.T) (addr string, read <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4<<10)
		if _, err := conn.Read(buf); err == nil {
			close(got)
		}
		io.Copy(io.Discard, conn)
	}()
	return ln.Addr().String(), got
}

// TestWorkerCloseUnblocksHungRound: with no job executing, the worker's
// rounds wait on an orchestrator that read the poll and never replies.
// Close returns at once, not after the round's deadline, and a round
// waiting then fails.
func TestWorkerCloseUnblocksHungRound(t *testing.T) {
	addr, read := silentPeer(t)
	w := NewWorker(vfs.NewMem(), nil, "w", addr, WorkerConfig{}) // a round's deadline is 5s
	defer w.Close()
	select {
	case <-read:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never polled")
	}
	errc := make(chan error, 1)
	go func() {
		_, err := w.call(&wireRequest{Op: "poll", Worker: "w"})
		errc <- err
	}()
	start := time.Now()
	w.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v with a round blocked on a silent orchestrator", d)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("a round on a closed worker succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("a round is still blocked after Close")
	}
}
