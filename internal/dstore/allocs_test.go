//go:build !race

package dstore

import (
	"runtime"
	"testing"

	"shield/internal/vfs"
)

// TestRemoteReadAtAllocs: the reply is decoded into the caller's buffer and
// the server reads into a pooled one, so neither side allocates a len(p)
// buffer of its own per read (before, each did: three times len(p) in all).
// What is left is gob's: its decoder allocates one message-sized buffer per
// frame (saferio.ReadData) before it copies into the destination, and that
// stays for as long as gob is the wire format. Client and server share this
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
	p := make([]byte, 64<<10)
	read := func(i int) {
		if _, err := f.ReadAt(p, int64(i%8)*int64(len(p))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // warm the pool and gob's type and buffer state
		read(i)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read(i)
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead > uint64(len(p))*3/2 {
		t.Fatalf("%d bytes allocated per %d-byte remote read, want under %d (gob's frame buffer and no second copy)", perRead, len(p), len(p)*3/2)
	}
}
