//go:build !race

package dstore

import (
	"runtime"
	"testing"

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
// copy under the handle's lock — no round trip and no allocation.
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := int64(8 << 10); off < 64<<10; off += int64(len(p)) {
		if _, err := f.ReadAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := srv.Stats().ReadOps - frames; n != 0 {
		t.Fatalf("%d read frames for reads inside the packet, want 0", n)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations for 14 reads served from the packet, want 0", n)
	}
}
