package lsm

import (
	"errors"
	"fmt"
	"testing"

	"shield/internal/metrics"
	"shield/internal/vfs"
)

// TestWALAppendENOSPCDegradesThenRecovers is the disk-full acceptance
// scenario: an ENOSPC during a synced WAL append must poison the engine into
// read-only degraded mode — every later write fails fast with ErrDegraded,
// nothing is ever acked — while reads keep serving the acked data correctly.
// Raising the quota and reopening must recover exactly the acked writes, and
// a second reopen must replay nothing (the first recovery flushed the WAL to
// L0 and advanced the manifest's log number).
func TestWALAppendENOSPCDegradesThenRecovers(t *testing.T) {
	base := vfs.NewMem()
	q := vfs.NewQuota(base, 16<<10)
	opts := testOptions(q)
	opts.SyncWrites = true
	opts.Logger = func(string, ...any) {}

	degradedBefore, noSpaceBefore := metrics.Storage.DegradedEntries.Load(), metrics.Storage.NoSpaceErrors.Load()

	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	// Write until the quota runs out mid-WAL-append. Every nil-returning Put
	// was synced-acked and must survive everything below.
	acked := map[string]string{}
	var writeErr error
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("k-%05d", i)
		v := fmt.Sprintf("v-%05d-%064d", i, i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			writeErr = err
			break
		}
		acked[k] = v
	}
	if writeErr == nil {
		t.Fatal("quota never exhausted; test misconfigured")
	}
	if len(acked) == 0 {
		t.Fatal("no writes acked before exhaustion; quota too small to be interesting")
	}
	if !errors.Is(writeErr, ErrDegraded) {
		t.Fatalf("failing write not marked degraded: %v", writeErr)
	}
	if !errors.Is(writeErr, vfs.ErrNoSpace) {
		t.Fatalf("failing write lost the ENOSPC cause: %v", writeErr)
	}
	if err := db.Degraded(); err == nil {
		t.Fatal("Degraded() = nil after a poisoned WAL append")
	} else if !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("Degraded() cause is not ENOSPC: %v", err)
	}

	// Property: degraded mode never acks a write, of any flavor.
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("late-%d", i)), []byte("x")); !errors.Is(err, ErrDegraded) {
			t.Fatalf("write %d acked (or misclassified) in degraded mode: %v", i, err)
		}
	}
	if err := db.Delete([]byte("k-00000")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("delete acked in degraded mode: %v", err)
	}

	// Reads still serve every acked write while degraded.
	for k, want := range acked {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("degraded read of %s: %q, %v", k, got, err)
		}
	}

	if metrics.Storage.DegradedEntries.Load() == degradedBefore || metrics.Storage.NoSpaceErrors.Load() == noSpaceBefore {
		t.Fatalf("metrics did not record the incident: %d degraded entries, %d out-of-space errors",
			metrics.Storage.DegradedEntries.Load()-degradedBefore, metrics.Storage.NoSpaceErrors.Load()-noSpaceBefore)
	}

	// Close may fail flushing writer buffers into the full disk; the WAL's
	// synced prefix is what recovery is specified against, not Close.
	_ = db.Close()

	// Operator frees space; reopen recovers all acked writes.
	q.SetLimit(0)
	replayedBefore := metrics.Recovery.WALRecordsReplayed.Load()
	db2, err := Open("db", opts)
	if err != nil {
		t.Fatalf("reopen after raising quota: %v", err)
	}
	if err := db2.Degraded(); err != nil {
		t.Fatalf("fresh open is degraded: %v", err)
	}
	for k, want := range acked {
		got, err := db2.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("post-recovery read of %s: %q, %v", k, got, err)
		}
	}
	// The never-acked writes must not have materialized as garbage: each is
	// either absent or exactly the value that one interrupted Put carried.
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("late-%d", i)
		if got, err := db2.Get([]byte(k)); err == nil && string(got) != "x" {
			t.Fatalf("unacked key %s resurrected with garbage %q", k, got)
		}
	}
	if metrics.Recovery.WALRecordsReplayed.Load() == replayedBefore {
		t.Fatal("recovery replayed no WAL records; the acked writes came from nowhere")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// WAL idempotence across the degraded boundary: recovery flushed the
	// replayed records to L0 and advanced the log number, so a second reopen
	// replays nothing twice.
	replayedBefore = metrics.Recovery.WALRecordsReplayed.Load()
	db3, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if d := metrics.Recovery.WALRecordsReplayed.Load() - replayedBefore; d != 0 {
		t.Fatalf("second reopen replayed %d WAL records; recovery is not idempotent", d)
	}
	for k, want := range acked {
		got, err := db3.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("second-reopen read of %s: %q, %v", k, got, err)
		}
	}
}

// TestCompactionENOSPCAbortsAndRetainsInputs checks the softer failure mode:
// compaction output hitting ENOSPC aborts the compaction, deletes its partial
// outputs, and retains the inputs — the engine stays writable and correct,
// it does NOT enter degraded mode, and compaction succeeds once space frees.
func TestCompactionENOSPCAbortsAndRetainsInputs(t *testing.T) {
	base := vfs.NewMem()
	q := vfs.NewQuota(base, 0) // unlimited for the setup phase
	opts := testOptions(q)
	opts.L0CompactionTrigger = 100 // no automatic compactions
	opts.Logger = func(string, ...any) {}

	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	want := map[string]string{}
	for sst := 0; sst < 4; sst++ {
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("c-%02d-%03d", sst, i)
			v := fmt.Sprintf("val-%02d-%03d-%0128d", sst, i, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	countSSTs := func() int {
		entries, err := q.List("db")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if kind, _, ok := parseFileName(e.Name); ok && kind == FileKindSST {
				n++
			}
		}
		return n
	}
	sstsBefore := countSSTs()
	if sstsBefore < 4 {
		t.Fatalf("setup produced %d SSTs, want >= 4", sstsBefore)
	}

	// Leave room for barely a block of compaction output, then compact.
	q.SetLimit(q.Used() + 256)
	abortsBefore := metrics.Storage.CompactionAborts.Load()
	err = db.CompactRange()
	if err == nil {
		t.Fatal("CompactRange succeeded with no space for outputs")
	}
	if !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("compaction failure lost the ENOSPC cause: %v", err)
	}
	if db.Degraded() != nil {
		t.Fatalf("aborted compaction poisoned the engine: %v", db.Degraded())
	}
	if metrics.Storage.CompactionAborts.Load() == abortsBefore {
		t.Fatal("CompactionAborts metric did not record the abort")
	}
	// Inputs retained, partial outputs deleted: same files, same data.
	if got := countSSTs(); got != sstsBefore {
		t.Fatalf("SST count changed across aborted compaction: %d -> %d", sstsBefore, got)
	}
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("read of %s after aborted compaction: %q, %v", k, got, err)
		}
	}
	// Still writable: not degraded, just behind on compaction.
	if err := db.Put([]byte("post-abort"), []byte("ok")); err != nil {
		t.Fatalf("write failed after aborted compaction: %v", err)
	}

	// Space frees; the retried compaction completes and the tree shrinks.
	q.SetLimit(0)
	if err := db.CompactRange(); err != nil {
		t.Fatalf("retried compaction failed with space available: %v", err)
	}
	if got := countSSTs(); got >= sstsBefore {
		t.Fatalf("compaction did not shrink the tree: %d -> %d SSTs", sstsBefore, got)
	}
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("read of %s after successful compaction: %q, %v", k, got, err)
		}
	}
}
