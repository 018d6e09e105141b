//go:build !race

package crypt

import (
	"runtime"
	"testing"
)

// endlessFile reads as an endless body and allocates nothing.
type endlessFile struct{}

func (endlessFile) Read(p []byte) (int, error) { return len(p), nil }
func (endlessFile) Close() error               { return nil }

// mallocs counts the heap allocations fn makes: the fewest of three rounds,
// because the counter is the whole process's and a stray allocation elsewhere
// in it (about one run in ten) lands in some round. Anything fn allocates per
// call shows in every round. Counted over many calls by the caller, not per call:
// testing.AllocsPerRun rounds down, and one allocation every few calls would
// read 0.
func mallocs(fn func()) uint64 {
	best := ^uint64(0)
	for round := 0; round < 3 && best != 0; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestBufferedWriterFlushAllocs: once the first flush has keyed the stream
// and sized the buffers, a flush allocates nothing: no key schedule, no CTR
// setup, no ciphertext buffer. At buffer size 0 every Write is a flush.
func TestBufferedWriterFlushAllocs(t *testing.T) {
	key, iv := testKeyIV(t)
	piece := make([]byte, 100) // flushes at body offsets that are not multiples of 16
	for _, bufSize := range []int{0, 512} {
		w := NewBufferedWriter(discardFile{}, key, iv, bufSize)
		write := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := w.Write(piece); err != nil {
					t.Fatal(err)
				}
			}
		}
		write(64)
		if n := mallocs(func() { write(10000) }); n != 0 {
			t.Errorf("bufSize=%d: %d allocations over 10000 writes in steady state, want 0", bufSize, n)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecryptingReaderReadAllocs: a steady-state Read of the replay reader
// costs its inner read and an XOR, and allocates nothing.
func TestDecryptingReaderReadAllocs(t *testing.T) {
	key, iv := testKeyIV(t)
	r, err := NewDecryptingReader(endlessFile{}, key, iv)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4<<10)
	read := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := r.Read(p[:1+i%len(p)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	read(64)
	if n := mallocs(func() { read(10000) }); n != 0 {
		t.Errorf("%d allocations over 10000 reads in steady state, want 0", n)
	}
}
