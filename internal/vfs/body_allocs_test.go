//go:build !race

package vfs

import (
	"runtime"
	"testing"
)

// allocated reports the heap objects and bytes fn allocates. Allocation
// counts mean nothing under the race detector, hence the build tag;
// `make io-path-check` runs this without -race.
func allocated(fn func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestMemFSAppendAllocs pins what an append costs the device model: growing a
// file to 64 MiB in 64 KiB writes allocates one extent per extent written and
// the file's own size in bytes, so every byte is copied once, into the extent
// it stays in. One flat slice grown by append allocated about five times the
// final size here and re-copied the file at every growth.
func TestMemFSAppendAllocs(t *testing.T) {
	const fileSize, chunk = 64 << 20, 64 << 10
	p := make([]byte, chunk)
	f, err := NewMem().Create("f")
	if err != nil {
		t.Fatal(err)
	}
	objects, bytes := allocated(func() {
		for n := 0; n < fileSize; n += chunk {
			if _, err := f.Write(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Slack: the slice of extent headers, regrown as it doubles.
	if extents := uint64(fileSize / extentSize); objects > extents+32 || bytes > fileSize+fileSize/16 {
		t.Fatalf("appending %d MiB in %d KiB writes: %d objects, %d bytes allocated; want about %d extents and the file's size",
			fileSize>>20, chunk>>10, objects, bytes, extents)
	}
}
