package lsm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shield/internal/lsm/manifest"
	"shield/internal/vfs"
	"shield/internal/vfs/vfstest"
)

// peakCompactor wraps the local compactor to record the peak number of
// concurrently executing compaction jobs. The workload and the options below
// keep two runnable plans around (an over-target base level beside a filling
// L0), but a job over a few tiny tables can finish before the second plan is
// picked. So a lone job waits, before it runs, until a second one joins it or
// the writer has acknowledged holdOps more Puts. That window is counted in the
// workload's own progress, not in wall clock (an earlier version held a job
// for up to 100 ms, which a loaded machine could miss). But flushes go on
// while a job is held, and a run can reach the L0 write stall with a lone
// job held: the writer then waits in makeRoomForWrite on l0Stalled, where it
// acknowledges nothing until a compaction drains L0, and the held job waits
// for its acknowledgements. So the hold also ends once the DB is in that
// stall; it re-checks every millisecond, as the stall wakes nothing here.
// And it ends when the writer, waiting in settleRangeA for a job that the
// held one blocks, releases every job held at that moment.
//
// The writer yields its processor after each acknowledgement: on memfs it
// never blocks, and without the yield the job the scheduler has just started
// (and the held job re-checking its window) can wait for the runtime to
// preempt the writer, long enough for the held job's window to close first.
type peakCompactor struct {
	inner   Compactor
	mu      sync.Mutex
	cond    sync.Cond
	running int
	peak    int
	acked   int  // Puts the writer has acknowledged
	done    bool // the writer has finished: hold nothing more
	db      *DB  // the DB whose L0 stall ends a hold, once open
	// releases counts settleRangeA's releases; a hold ends when it moves.
	// Atomic, because the writer bumps it holding db.mu, and a hold takes
	// db.mu under c.mu.
	releases atomic.Int64
}

const holdOps = 20

// firstBurstB is the burst length of concurrentCrashOps: ops [0, 40) write
// range A, [40, 80) range B, and so on.
const firstBurstB = 40

func newPeakCompactor(inner Compactor) *peakCompactor {
	c := &peakCompactor{inner: inner}
	c.cond.L = &c.mu
	return c
}

func (c *peakCompactor) Compact(job CompactionJob, newFileNum func() (uint64, error)) (CompactionResult, error) {
	c.mu.Lock()
	c.running++
	c.peak = max(c.peak, c.running)
	c.cond.Broadcast()
	gen := c.releases.Load()
	for until := c.acked + holdOps; c.running == 1 && c.acked < until && !c.done && c.releases.Load() == gen && !c.writerStalled(); {
		recheck := time.AfterFunc(time.Millisecond, c.wake)
		c.cond.Wait()
		recheck.Stop()
	}
	c.mu.Unlock()

	res, err := c.inner.Compact(job, newFileNum)

	c.mu.Lock()
	c.running--
	c.mu.Unlock()
	return res, err
}

// writerStalled reports whether writes wait on L0 compaction. c.mu held.
func (c *peakCompactor) writerStalled() bool {
	if c.db == nil {
		return false
	}
	c.db.mu.Lock()
	defer c.db.mu.Unlock()
	return l0Stalled(c.db.current)
}

func (c *peakCompactor) wake() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// watch makes db's L0 write stall end every hold.
func (c *peakCompactor) watch(db *DB) {
	c.mu.Lock()
	c.db = db
	c.mu.Unlock()
}

// ack records one acknowledged Put, or with done the end of the workload,
// and yields the writer's processor to the jobs.
func (c *peakCompactor) ack(done bool) {
	c.mu.Lock()
	c.acked++
	c.done = c.done || done
	c.cond.Broadcast()
	c.mu.Unlock()
	runtime.Gosched()
}

func (c *peakCompactor) peakRunning() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// settleRangeA waits, before range B's first burst, until one of range A's
// L0 jobs has installed above the bottom level: L0 holds no range-A table
// and a level between L0 and the bottom holds range A. That is the premise
// the pairing needs — B's first L0 job then shares no input with the job
// that moves A's tables down from there — and the writer waits on the
// Version for it instead of hoping the scheduler got there first: a job
// that took A's last L0 table together with B's first ones would leave the
// two nothing to run beside. While it waits, every job held for a partner
// is released (the acks it waits for are what this wait withholds); the job
// the install of A's L0 job starts is not, and waits for B's. If nothing
// runs and range A still has a table in L0 under the trigger (or none above
// the bottom), the last op is put again — its own key and value, so the
// state the images are checked against does not change — and flushed,
// until a job takes it. (A's first L0 job goes to the bottom level, the
// base of an empty tree; the next one lands above it.)
func settleRangeA(t *testing.T, db *DB, c *peakCompactor, last crashOp) {
	t.Helper()
	inA := func(level int) (n int) {
		for _, f := range db.current.Levels[level] {
			if f.Overlaps([]byte("a"), []byte("a\xff")) {
				n++
			}
		}
		return n
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	aboveBottom := func() (n int) {
		for level := 1; level < manifest.NumLevels-1; level++ {
			n += inA(level)
		}
		return n
	}
	for inA(0) > 0 || aboveBottom() == 0 {
		if db.compactions == 0 && !db.flushing && len(db.imm) == 0 {
			db.mu.Unlock()
			err := db.Put(last.key, last.value)
			if err == nil {
				err = db.Flush()
			}
			db.mu.Lock()
			if err != nil {
				t.Fatalf("settling range A: %v", err)
			}
			continue
		}
		// Release what is held now, and look again in a millisecond: a job
		// that starts after this release holds until the next one.
		c.releases.Add(1)
		recheck := time.AfterFunc(time.Millisecond, func() {
			db.mu.Lock()
			db.bgCond.Broadcast()
			db.mu.Unlock()
		})
		db.bgCond.Wait()
		recheck.Stop()
	}
}

// concurrentCrashOps alternates write bursts between two disjoint key
// ranges. After range A's data settles into the base level, a burst in range
// B arms an L0 job with no overlap on A's files — so the job moving A's
// tables out of the base can run beside it, which is what puts two jobs in
// flight.
func concurrentCrashOps(n int) []crashOp {
	ops := make([]crashOp, n)
	for i := range ops {
		prefix := "a"
		if (i/firstBurstB)%2 == 1 {
			prefix = "b"
		}
		k := fmt.Sprintf("%s%03d", prefix, i%60)
		v := fmt.Sprintf("v%05d-%064d", i, i)
		ops[i] = crashOp{key: []byte(k), value: []byte(v)}
	}
	return ops
}

// TestCrashRecoveryConcurrentCompactions extends the power-loss enumeration
// to the parallel scheduler: crash images are captured at every sync
// boundary while up to three compaction jobs rewrite the tree, and every
// image must recover with all acked writes intact (the PR 3 checker axioms,
// unchanged). The run is rejected if it never actually had two jobs in
// flight.
func TestCrashRecoveryConcurrentCompactions(t *testing.T) {
	ops := concurrentCrashOps(240)

	cfs := vfs.NewCrash(1)
	var (
		ptMu   sync.Mutex
		points []crashPoint
		acked  atomic.Int64
	)
	// Compaction and flush goroutines sync while the writer keeps getting
	// acks, so the ack count a crash point promises is the one noted BEFORE
	// its sync; the one noted after its image was captured bounds the ops
	// whose unsynced WAL tail the image may hold.
	fs := vfstest.NewAckedFS(cfs, acked.Load, func(event string, img *vfs.CrashImage, acked, captured int64) {
		ptMu.Lock()
		points = append(points, crashPoint{event: event, img: img, acked: acked, captured: captured})
		ptMu.Unlock()
	})

	pairing := newPeakCompactor(&LocalCompactor{FS: fs})
	opts := crashTestOptions(fs)
	opts.MaxBackgroundJobs = 4
	opts.Compactor = pairing
	// Once range A's first tables reach the bottom level, a tenth of it is
	// over BaseLevelSize, so the base moves above the bottom and is over
	// its target as soon as a range settles there: see peakCompactor.
	opts.BaseLevelSize = 128

	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	pairing.watch(db)
	for i, op := range ops {
		if i == firstBurstB {
			settleRangeA(t, db, pairing, ops[i-1])
		}
		if err := db.Put(op.key, op.value); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked.Add(1)
		pairing.ack(false)
		if (i+1)%20 == 0 {
			if err := db.Flush(); err != nil {
				t.Fatalf("flush at %d: %v", i, err)
			}
		}
	}
	pairing.ack(true)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if got := pairing.peakRunning(); got < 2 {
		t.Fatalf("peak concurrent compaction jobs = %d, want >= 2 (workload failed to arm the scheduler)", got)
	}

	ptMu.Lock()
	pts := points
	ptMu.Unlock()
	if len(pts) < 50 {
		t.Fatalf("only %d crash points enumerated, want >= 50", len(pts))
	}
	t.Logf("enumerated %d crash points; peak jobs=%d", len(pts), pairing.peakRunning())
	for i, pt := range pts {
		verifyCrashImage(t, "strict", i, pt, pt.img.Strict(), ops)
		verifyCrashImage(t, "torn", i, pt, pt.img.Torn(0), ops)
	}
}

// batchCrashPoint is one crash image plus a snapshot of how many ops each
// concurrent writer had been acked for when the boundary fired.
type batchCrashPoint struct {
	event string
	img   *vfs.CrashImage
	acked []int64
}

// TestCrashRecoveryGroupCommitAtomicity enumerates power-loss points while
// concurrent synced writers ride coalesced commit groups, then checks two
// invariants on every image, strict and torn:
//
//  1. Durability: every op a writer was acked for before the boundary
//     survives (each ack followed that op's own WAL sync).
//  2. Group atomicity: for every commit group the pipeline reported, the
//     recovered image holds ALL of the group's keys or NONE — a torn tail
//     mid-coalesced-record must drop the whole group, never half of it.
func TestCrashRecoveryGroupCommitAtomicity(t *testing.T) {
	const writers, perWriter = 6, 60
	cfs := vfs.NewCrash(1)
	var (
		ptMu   sync.Mutex
		points []batchCrashPoint
		acked  [writers]atomic.Int64
	)
	// Each point promises the counts noted before its image was captured
	// (vfstest.AckedFS); read afterwards, they can include a Put whose WAL
	// sync the image is too old to hold.
	note := func() []int64 {
		snap := make([]int64, writers)
		for i := range snap {
			snap[i] = acked[i].Load()
		}
		return snap
	}
	afs := vfstest.NewAckedFS(cfs, note, func(event string, img *vfs.CrashImage, acked, _ []int64) {
		ptMu.Lock()
		points = append(points, batchCrashPoint{event: event, img: img, acked: acked})
		ptMu.Unlock()
	})

	// Slow WAL syncs (layered above the crash capture) make writers pile up
	// behind the leader, so groups really coalesce.
	fs := &slowSyncFS{FS: afs, delay: 100 * time.Microsecond}
	opts := crashTestOptions(fs)
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := &groupRecorder{}
	db.commitHook = rec.hook

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("v%d-%d", w, i))); err != nil {
					t.Errorf("writer %d put %d: %v", w, i, err)
					return
				}
				acked[w].Add(1)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	groups := append([][]string(nil), rec.keys...)
	maxGroup := 0
	for _, s := range rec.sizes {
		if s > maxGroup {
			maxGroup = s
		}
	}
	rec.mu.Unlock()
	if maxGroup < 2 {
		t.Fatalf("largest commit group = %d: the workload never coalesced, test has no teeth", maxGroup)
	}
	ptMu.Lock()
	pts := points
	ptMu.Unlock()
	if len(pts) < 30 {
		t.Fatalf("only %d crash points enumerated, want >= 30", len(pts))
	}
	t.Logf("enumerated %d crash points, %d groups, largest group %d", len(pts), len(groups), maxGroup)

	verify := func(mode string, i int, pt batchCrashPoint, fs *vfs.MemFS) {
		opts := crashTestOptions(fs)
		opts.ParanoidChecks = true
		db, err := Open("db", opts)
		if err != nil {
			t.Fatalf("%s point %d (%s): reopen failed: %v", mode, i, pt.event, err)
		}
		defer db.Close()
		present := func(k string) bool {
			_, err := db.Get([]byte(k))
			if err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s point %d (%s): Get(%s): %v", mode, i, pt.event, k, err)
			}
			return err == nil
		}
		// Durability of acked ops.
		for w := 0; w < writers; w++ {
			for op := int64(0); op < pt.acked[w]; op++ {
				if k := fmt.Sprintf("w%d-%04d", w, op); !present(k) {
					t.Fatalf("%s point %d (%s): acked key %s lost", mode, i, pt.event, k)
				}
			}
		}
		// All-or-none per commit group.
		for gi, g := range groups {
			have := 0
			for _, k := range g {
				if present(k) {
					have++
				}
			}
			if have != 0 && have != len(g) {
				t.Fatalf("%s point %d (%s): group %d partially recovered: %d of %d keys (%v)",
					mode, i, pt.event, gi, have, len(g), g)
			}
		}
	}
	for i, pt := range pts {
		verify("strict", i, pt, pt.img.Strict())
		verify("torn", i, pt, pt.img.Torn(0))
	}
}
