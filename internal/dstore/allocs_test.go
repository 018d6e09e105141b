//go:build !race

package dstore

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"shield/internal/metrics"
	"shield/internal/vfs"
)

// TestRemoteReadAtAllocs: a remote read allocates no buffer of its size on
// either side. The reply is read straight from the socket into the caller's
// buffer; the node reads the file into a buffer its connection keeps and
// sends it with its header in one vectored write; request and reply headers
// are encoded into per-connection buffers. (Under gob, the decoder's frame
// buffer alone was one len(p) per read.) Client and server share this
// process, so the bound covers both. Bytes, not counts.
func TestRemoteReadAtAllocs(t *testing.T) {
	_, client := newPair(t, 0, 0)
	payload := make([]byte, 1<<20)
	if err := vfs.WriteFile(client, "f", payload); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, writePacketSize) // a packet or more: never read ahead
	read := func(i int) {
		if _, err := f.ReadAt(p, int64(i%8)*int64(len(p))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // warm the connections' buffers
		read(i)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read(i)
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead > uint64(len(p))/8 {
		t.Fatalf("%d bytes allocated per %d-byte remote read, want at most %d", perRead, len(p), len(p)/8)
	}
}

// TestReadAheadServedAllocs: a read served from the read-ahead packet is a
// copy under the handle's lock — no round trip and no allocation. The
// count is the process's, and the in-process node's goroutines run beside
// the reads, so it is taken on one P and is the fewest of 5 rounds: a read
// that allocates does so in every round.
func TestReadAheadServedAllocs(t *testing.T) {
	srv, client := newPair(t, 0, 0)
	if err := vfs.WriteFile(client, "f", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, 4<<10)
	// The first read goes to the wire, the second continues it and fetches
	// the packet [4 KiB, 68 KiB); reads up to 64 KiB come out of it.
	for _, off := range []int64{0, 4 << 10} {
		if _, err := f.ReadAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	frames := srv.Stats().ReadOps
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := ^uint64(0)
	for round := 0; round < 5 && best != 0; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for off := int64(8 << 10); off < 64<<10; off += int64(len(p)) {
			if _, err := f.ReadAt(p, off); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if n := srv.Stats().ReadOps - frames; n != 0 {
		t.Fatalf("%d read frames for reads inside the packet, want 0", n)
	}
	if best != 0 {
		t.Fatalf("%d allocations for 14 reads served from the packet in the best of 5 rounds, want 0", best)
	}
}

// TestNodeFingerprintAllocs: a storage node fingerprints a file by streaming
// it: OpSum hashes it through a fixed copy buffer, so it does not allocate in
// proportion to the file (reading it whole would be 8 MiB). Client and
// server share this process, so the bound covers both.
func TestNodeFingerprintAllocs(t *testing.T) {
	srv, client := newPair(t, 0, 0)
	if err := vfs.WriteFile(srv.LocalFS(), "f", make([]byte, 8<<20)); err != nil {
		t.Fatal(err)
	}
	sum := func() error { _, _, err := client.Sum("f"); return err }
	if err := sum(); err != nil { // warm the connections' buffers
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sum(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Sum of an 8 MiB file: %d KiB allocated", got>>10)
	if limit := uint64(256 << 10); got > limit {
		t.Errorf("Sum of an 8 MiB file allocated %d KiB, want at most %d KiB", got>>10, limit>>10)
	}
}

// TestResyncAllocs: a rejoin pass fingerprints through the node's streaming
// OpSum and copies each divergent file in writePacketSize packets, so its
// memory does not follow the namespace size. Nodes, clients and the set
// share this process, so the bounds cover every side.
func TestResyncAllocs(t *testing.T) {
	tc := newTestCluster(t, 3)
	rs := tc.dialEvery(2, time.Hour) // passes run only when the test calls them
	if err := rs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	// demote kills replica 2 and lets a mutation's failed branch demote it.
	demote := func() {
		t.Helper()
		tc.kill(2)
		if err := rs.SyncDir("db"); err != nil {
			t.Fatal(err)
		}
		if rs.Replicas()[2].InSync {
			t.Fatal("killed replica still in sync")
		}
	}
	pass := func(what string, limit uint64, shipped int64) {
		t.Helper()
		tc.restart(2)
		bytesBefore := metrics.Net.Snapshot().ResyncBytes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs.resyncPass()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("pass that %s: %d KiB allocated", what, got>>10)
		if !rs.Replicas()[2].InSync {
			t.Fatalf("pass that %s left the replica stale", what)
		}
		requireConverged(t, tc.bases...)
		if n := metrics.Net.Snapshot().ResyncBytes - bytesBefore; n != shipped {
			t.Fatalf("pass that %s shipped %d bytes, want %d", what, n, shipped)
		}
		if got > limit {
			t.Errorf("pass that %s allocated %d KiB, want at most %d KiB", what, got>>10, limit>>10)
		}
	}

	demote()
	const files, size = 4, 4 << 20
	for i := 0; i < files; i++ {
		if err := vfs.WriteFile(rs, fmt.Sprintf("db/f%d", i), make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	// About 32 MiB of this bound is the target's MemFS growing to hold the
	// 16 MiB of copies; the copy itself holds one packet per file.
	pass("ships all 16 MiB", 40<<20, files*size)
	demote()
	pass("ships nothing", 2<<20, 0)
}
