package compactsvc

import (
	"encoding/json"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"shield/internal/lsm"
	"shield/internal/lsm/manifest"
	"shield/internal/netretry"
	"shield/internal/vfs"
)

// fakeWorker speaks the wire protocol by hand, so tests can claim a job and
// then misbehave: never heartbeat (a dead worker) or complete long after the
// lease was revoked (a zombie).
type fakeWorker struct {
	t    *testing.T
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dialFake(t *testing.T, addr string) *fakeWorker {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &fakeWorker{t: t, conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
}

func (f *fakeWorker) round(req *wireRequest) *wireResponse {
	f.t.Helper()
	f.conn.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if err := f.enc.Encode(req); err != nil {
		f.t.Fatal(err)
	}
	var resp wireResponse
	if err := f.dec.Decode(&resp); err != nil {
		f.t.Fatal(err)
	}
	return &resp
}

// fileNum asks for the next output file number on a claim.
func (f *fakeWorker) fileNum(claim *wireResponse) *wireResponse {
	f.t.Helper()
	return f.round(&wireRequest{Op: "file", Worker: "fake", JobID: claim.JobID, Lease: claim.Lease})
}

// claim polls until a job is handed out.
func (f *fakeWorker) claim(name string) *wireResponse {
	f.t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp := f.round(&wireRequest{Op: "poll", Worker: name})
		if resp.Job != nil {
			return resp
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.t.Fatal("no job offered within 2s")
	return nil
}

func testJob(m1, m2 manifest.FileMetadata) lsm.CompactionJob {
	return lsm.CompactionJob{
		Dir:              "db",
		Inputs:           []lsm.JobLevel{{Level: 0, Files: []manifest.FileMetadata{m2, m1}}},
		OutputLevel:      1,
		Bottommost:       true,
		SmallestSnapshot: 1 << 60,
		TargetFileSize:   1 << 20,
	}
}

// TestLeaseExpiryReclaimAndStaleComplete is the tentpole scenario: a worker
// claims a job, takes an output file number, writes a partial output under
// it and dies (stops heartbeating). Its lease expires, the partial output is
// swept, the job is reclaimed and finished by a healthy worker under numbers
// the dead one was never granted — and when the dead worker turns out to be
// a zombie, its next number request and its result are answered Stale.
func TestLeaseExpiryReclaimAndStaleComplete(t *testing.T) {
	fs := vfs.NewMem()
	m1 := buildInput(t, fs, 1, 0, 500)
	m2 := buildInput(t, fs, 2, 250, 750)

	orch, err := NewOrchestrator(fs, "127.0.0.1:0", OrchestratorConfig{
		LeaseTTL:    100 * time.Millisecond,
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()

	type result struct {
		res lsm.CompactionResult
		err error
	}
	resCh := make(chan result, 1)
	nums := numbersFrom(10)
	go func() {
		res, err := orch.Compact(testJob(m1, m2), nums.newFileNum)
		resCh <- result{res, err}
	}()

	// The doomed worker claims attempt 1 and takes one output number.
	fake := dialFake(t, orch.Addr())
	claim := fake.claim("doomed")
	granted := fake.fileNum(claim)
	if granted.Stale || granted.FileNum != 10 {
		t.Fatalf("first number on a live lease: %+v, want 10", granted)
	}
	// It writes one partial output, then dies (no heartbeats).
	partial := lsm.TableFileName("db", granted.FileNum)
	if err := vfs.WriteFile(fs, partial, []byte("partial garbage")); err != nil {
		t.Fatal(err)
	}

	// A healthy worker picks up the reclaimed job.
	w := NewWorker(fs, lsm.NopWrapper{}, "healthy", orch.Addr(), WorkerConfig{PollEvery: 2 * time.Millisecond})
	defer w.Close()

	r := <-resCh
	if r.err != nil {
		t.Fatalf("reclaimed job failed: %v", r.err)
	}
	if len(r.res.Outputs) == 0 {
		t.Fatal("no outputs")
	}
	for _, out := range r.res.Outputs {
		if out.FileNum == granted.FileNum {
			t.Fatalf("attempt 2 reused the dead attempt's number %d", out.FileNum)
		}
	}

	// The dead attempt's partial output was swept by the janitor.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := fs.Stat(partial); errors.Is(err, vfs.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead attempt's partial output was not swept")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The zombie wakes up: its next number request is refused, and its
	// result is told Stale and discarded.
	if again := fake.fileNum(claim); !again.Stale || again.FileNum != 0 {
		t.Fatalf("number request on a revoked lease: %+v, want Stale", again)
	}
	done := fake.round(&wireRequest{
		Op: "complete", Worker: "doomed",
		JobID: claim.JobID, Lease: claim.Lease,
		Result: &lsm.CompactionResult{},
	})
	if !done.Stale {
		t.Fatal("zombie complete was not answered Stale")
	}

	st := orch.Stats()
	if st.Expired == 0 {
		t.Fatalf("no lease expiry recorded: %+v", st)
	}
	if st.StaleCompletes != 1 {
		t.Fatalf("stale completes = %d, want 1", st.StaleCompletes)
	}
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want 1", st.Completed)
	}
	// The worker counts a job once the orchestrator's reply to its complete
	// has come back, which is after Compact has returned the result here.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if wj, _, _ := w.Stats(); wj == 1 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("healthy worker jobs = %d, want 1", wj)
		}
	}
}

// TestHeartbeatKeepsSlowJobAlive pins a job open well past the lease TTL:
// as long as the worker heartbeats, the janitor must not reclaim it.
func TestHeartbeatKeepsSlowJobAlive(t *testing.T) {
	fs := vfs.NewMem()
	m1 := buildInput(t, fs, 1, 0, 500)
	m2 := buildInput(t, fs, 2, 250, 750)

	orch, err := NewOrchestrator(fs, "127.0.0.1:0", OrchestratorConfig{
		LeaseTTL:    60 * time.Millisecond,
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()

	gate := make(chan struct{})
	slow := &gateFS{FS: fs, gate: gate}
	w := NewWorker(slow, lsm.NopWrapper{}, "slow", orch.Addr(), WorkerConfig{PollEvery: 2 * time.Millisecond})
	defer w.Close()

	resCh := make(chan error, 1)
	go func() {
		_, err := orch.Compact(testJob(m1, m2), numbersFrom(10).newFileNum)
		resCh <- err
	}()

	// Hold the job open for several TTLs; heartbeats must keep the lease.
	time.Sleep(300 * time.Millisecond)
	if st := orch.Stats(); st.Expired != 0 || st.Leased != 1 {
		t.Fatalf("lease lost under active heartbeats: %+v", st)
	}
	close(gate)
	if err := <-resCh; err != nil {
		t.Fatalf("slow job failed: %v", err)
	}
	if st := orch.Stats(); st.Expired != 0 || st.Completed != 1 {
		t.Fatalf("after completion: %+v", st)
	}
}

// gateFS blocks the first SST read until the gate opens, simulating a
// healthy-but-slow worker.
type gateFS struct {
	vfs.FS
	gate chan struct{}
}

func (g *gateFS) Open(name string) (vfs.RandomAccessFile, error) {
	f, err := g.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{RandomAccessFile: f, gate: g.gate}, nil
}

type gateFile struct {
	vfs.RandomAccessFile
	gate chan struct{}
}

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	<-f.gate
	return f.RandomAccessFile.ReadAt(p, off)
}

// TestUnclaimedJobFailsWithJobLost: with no worker pool at all, the job
// deadline converts into lsm.ErrJobLost — the engine-side halt signal —
// instead of wedging the engine's compaction goroutine forever.
func TestUnclaimedJobFailsWithJobLost(t *testing.T) {
	fs := vfs.NewMem()
	m1 := buildInput(t, fs, 1, 0, 20)
	m2 := buildInput(t, fs, 2, 10, 30)

	orch, err := NewOrchestrator(fs, "127.0.0.1:0", OrchestratorConfig{
		LeaseTTL:   40 * time.Millisecond,
		JobTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()

	_, err = orch.Compact(testJob(m1, m2), numbersFrom(10).newFileNum)
	if !errors.Is(err, lsm.ErrJobLost) {
		t.Fatalf("unclaimed job returned %v, want ErrJobLost", err)
	}
	if st := orch.Stats(); st.Failed != 1 {
		t.Fatalf("failed = %d, want 1: %+v", st.Failed, st)
	}
}

// TestExhaustedAttemptsFailWithJobLost: every attempt claimed by a worker
// that dies. After MaxAttempts lease expiries the job is terminal with
// lsm.ErrJobLost and every number granted to an attempt was swept.
func TestExhaustedAttemptsFailWithJobLost(t *testing.T) {
	fs := vfs.NewMem()
	m1 := buildInput(t, fs, 1, 0, 20)
	m2 := buildInput(t, fs, 2, 10, 30)

	orch, err := NewOrchestrator(fs, "127.0.0.1:0", OrchestratorConfig{
		LeaseTTL:    50 * time.Millisecond,
		MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()

	resCh := make(chan error, 1)
	go func() {
		_, err := orch.Compact(testJob(m1, m2), numbersFrom(10).newFileNum)
		resCh <- err
	}()

	fake := dialFake(t, orch.Addr())
	var partials []string
	for attempt := 0; attempt < 2; attempt++ {
		claim := fake.claim("serial-killer")
		p := lsm.TableFileName("db", fake.fileNum(claim).FileNum)
		if err := vfs.WriteFile(fs, p, []byte("junk")); err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
		// Die: no heartbeat, wait for the reclaim.
	}

	err = <-resCh
	if !errors.Is(err, lsm.ErrJobLost) {
		t.Fatalf("exhausted job returned %v, want ErrJobLost", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, p := range partials {
		for {
			if _, err := fs.Stat(p); errors.Is(err, vfs.ErrNotFound) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("partial %s not swept", p)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if st := orch.Stats(); st.Expired != 2 || st.Failed != 1 {
		t.Fatalf("stats after exhaustion: %+v", st)
	}
}

// holdFS records the files a worker creates and holds the holdAt-th
// creation until release is closed.
type holdFS struct {
	vfs.FS
	holdAt  int
	held    chan struct{} // closed when the held creation is reached
	release chan struct{}

	mu      sync.Mutex
	created []string
}

func (h *holdFS) Create(name string) (vfs.WritableFile, error) {
	h.mu.Lock()
	h.created = append(h.created, name)
	n := len(h.created)
	h.mu.Unlock()
	if n == h.holdAt {
		close(h.held)
		<-h.release
	}
	return h.FS.Create(name)
}

// removeLog records the files removed through it: the orchestrator's sweeps.
type removeLog struct {
	vfs.FS
	mu      sync.Mutex
	removed []string
}

func (r *removeLog) Remove(name string) error {
	r.mu.Lock()
	r.removed = append(r.removed, name)
	r.mu.Unlock()
	return r.FS.Remove(name)
}

func (r *removeLog) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.removed)
}

// waitFor polls cond until it holds or 5 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestZombieIsRefusedNumbers: a real worker loses its lease mid-job while it
// is creating its second output. The janitor removes exactly the two numbers
// granted to it; its next number request is answered Stale, so it creates no
// further table and aborts its own outputs; and the worker that reclaims the
// job writes under numbers disjoint from the zombie's.
func TestZombieIsRefusedNumbers(t *testing.T) {
	fs := vfs.NewMem()
	m := buildInput(t, fs, 1, 0, 5000)
	sweeps := &removeLog{FS: fs}
	orch, err := NewOrchestrator(sweeps, "127.0.0.1:0", OrchestratorConfig{LeaseTTL: 100 * time.Millisecond, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()

	zfs := &holdFS{FS: fs, holdAt: 2, held: make(chan struct{}), release: make(chan struct{})}
	link := startRelay(t, orch.Addr())
	// The zombie's rounds wait out the held link rather than time out.
	zombie := NewWorker(zfs, lsm.NopWrapper{}, "zombie", link.addr(),
		WorkerConfig{PollEvery: 2 * time.Millisecond, Policy: netretry.Policy{RequestTimeout: time.Minute}})
	defer zombie.Close()

	job := lsm.CompactionJob{
		Dir:            "db",
		Inputs:         []lsm.JobLevel{{Level: 0, Files: []manifest.FileMetadata{m}}},
		OutputLevel:    1,
		TargetFileSize: 1 << 10,
	}
	nums := numbersFrom(10)
	type result struct {
		res lsm.CompactionResult
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		res, err := orch.Compact(job, nums.newFileNum)
		resCh <- result{res, err}
	}()

	select {
	case <-zfs.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never created its second output")
	}
	// Holding the zombie's link stops its heartbeats and its requests until
	// its lease is revoked.
	link.gate.Lock()
	granted := nums.nums()
	if len(granted) != 2 {
		t.Fatalf("worker holding its second output was granted %v", granted)
	}
	var grantedNames []string
	for _, n := range granted {
		grantedNames = append(grantedNames, lsm.TableFileName("db", n))
	}
	waitFor(t, "the lease to expire", func() bool { return orch.Stats().Expired == 1 })
	waitFor(t, "the sweep", func() bool { return len(sweeps.names()) == len(granted) })

	healthy := NewWorker(fs, lsm.NopWrapper{}, "healthy", orch.Addr(), WorkerConfig{PollEvery: 2 * time.Millisecond})
	defer healthy.Close()
	waitFor(t, "the reclaim", func() bool { st := orch.Stats(); return st.Leased == 1 || st.Completed == 1 })
	close(zfs.release) // the zombie creates the table it was granted...
	link.gate.Unlock() // ...then asks for its next number and is told Stale

	r := <-resCh
	if r.err != nil {
		t.Fatalf("reclaimed job failed: %v", r.err)
	}
	if len(r.res.Outputs) < 88 {
		t.Fatalf("%d outputs, want at least 88", len(r.res.Outputs))
	}
	// Every number issued after the revoke went to the reclaiming attempt.
	if got, after := outputNums(r.res), nums.nums()[len(granted):]; !sameSet(got, after) {
		t.Fatalf("reclaiming attempt wrote %v, numbers issued after the revoke %v", got, after)
	}
	waitFor(t, "the zombie's complete", func() bool { return orch.Stats().StaleCompletes == 1 })
	zfs.mu.Lock()
	created := slices.Clone(zfs.created)
	zfs.mu.Unlock()
	if !slices.Equal(created, grantedNames) {
		t.Fatalf("zombie created %v, it was granted %v", created, grantedNames)
	}
	if removed := sweeps.names(); !slices.Equal(removed, grantedNames) {
		t.Fatalf("the orchestrator removed %v, the zombie was granted %v", removed, grantedNames)
	}
	for _, name := range grantedNames {
		if _, err := fs.Stat(name); !errors.Is(err, vfs.ErrNotFound) {
			t.Fatalf("zombie output %s left behind: %v", name, err)
		}
	}
	if jobs, _, _ := zombie.Stats(); jobs != 0 {
		t.Fatalf("zombie counted %d jobs", jobs)
	}
}
