//go:build !race

package crypt

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocation counts mean nothing under the race detector (it instruments and
// allocates on its own), hence the build tag; `make io-path-check` runs
// these without -race.

// mallocsPer returns the heap allocations per call of fn after one warm-up
// call, as a fraction: testing.AllocsPerRun rounds down to a whole number,
// which would pass anything below one allocation per call. Like
// AllocsPerRun it runs on one P, so fn meets the pool it last put back into.
// No GC cycle runs while it counts: a cycle empties every sync.Pool, and
// the first use of a pool after one allocates the pool's per-P array again,
// an allocation of the runtime's, not of fn's. So it turns the collector
// off (which waits out a cycle in progress), collects once, and warms up
// after that.
func mallocsPer(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestSealedReadAtAllocs: once warm, a sealed read allocates nothing,
// however many records it covers: its ciphertext comes from extentPool, and
// there are no per-record ciphertext, plaintext, nonce or AAD buffers. A
// whole-record read — an SST block-cache miss — is also exactly one inner
// read.
func TestSealedReadAtAllocs(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 24*4096+77)
	rand.New(rand.NewSource(18)).Read(payload)
	r, innerReads := countedSealed(t, s, payload, 4096)
	for name, rd := range map[string]struct {
		off int64
		n   int
	}{
		"whole 4 KiB record": {2 * 4096, 4096},
		"straddling 4 KiB":   {2*4096 + 1500, 4096},
		"64 KiB":             {1500, 64 << 10},
	} {
		p := make([]byte, rd.n)
		read := func() {
			if _, err := r.ReadAt(p, rd.off); err != nil {
				t.Fatal(err)
			}
		}
		if a := mallocsPer(200, read); a != 0 {
			t.Errorf("%s ReadAt: %v allocs per call, want 0", name, a)
		}
		if n := innerReads(read); n != 1 {
			t.Errorf("%s ReadAt: %d inner reads, want 1", name, n)
		}
	}
}

// TestSealedReadAtRetainedExtentAllocs: extentPool keeps no buffer larger
// than extentPoolMax. A read past the cap allocates its extent on every
// call and gives back the small buffer it took, so the 4 KiB misses after it
// still allocate nothing.
func TestSealedReadAtRetainedExtentAllocs(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 300*4096+5)
	rand.New(rand.NewSource(19)).Read(payload)
	r := mustOpenSealed(t, s, sealToMem(t, s, payload))
	small, huge := make([]byte, 4096), make([]byte, 1<<20)
	read := func(p []byte, off int64) {
		if _, err := r.ReadAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	read(small, 1500) // warm the pool
	// The best of three rounds: a GC between a Put and the next Get may
	// empty the pool (anything kept past the cap shows in every round).
	best := ^uint64(0)
	for round := 0; round < 3 && best != 0; round++ {
		read(huge, 700)
		ext := extentPool.Get().(*[]byte)
		if cap(*ext) > extentPoolMax {
			t.Fatalf("after a 1 MiB read the pool holds a %d-byte extent, cap %d", cap(*ext), extentPoolMax)
		}
		extentPool.Put(ext)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := int64(0); i < 100; i++ {
			read(small, 1500+i*4096)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if best != 0 {
		t.Errorf("100 4 KiB reads after a 1 MiB read: %d allocations, want 0", best)
	}
	over := make([]byte, extentPoolMax)
	if a := mallocsPer(20, func() { read(over, 1500) }); a < 1 {
		t.Errorf("ReadAt over %d bytes (past the cap): %v allocs per call, want its extent on every call", len(over), a)
	}
}

func TestSealOpenBlockAllocs(t *testing.T) {
	s, _ := newTestSealer(t)
	plain := make([]byte, SealedBlockSize)
	sealed := make([]byte, 0, SealedBlockSize+SealedTagSize)
	opened := make([]byte, 0, SealedBlockSize)
	if a := testing.AllocsPerRun(200, func() { sealed = s.SealBlock(sealed[:0], plain, 3, false) }); a != 0 {
		t.Errorf("SealBlock into a caller buffer: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, err := s.OpenBlock(opened[:0], sealed, 3, false); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("OpenBlock into a caller buffer: %v allocs, want 0", a)
	}
}

// discardFile accepts every write and keeps nothing.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// TestSealedWriterWriteAllocs: once the writer holds its 2*workers+1 chunk
// jobs (one when inline), writing allocates nothing: no plaintext chunk
// regrown from empty, no ciphertext buffer, no done channel, no job per chunk,
// on the producer or on a worker (the count is the whole process's).
func TestSealedWriterWriteAllocs(t *testing.T) {
	s, _ := newTestSealer(t)
	piece := make([]byte, 4<<10)
	rand.New(rand.NewSource(21)).Read(piece)
	for _, workers := range []int{1, 2} {
		const chunk = 64 << 10
		w := NewSealedWriter(discardFile{}, s, chunk, workers)
		// Twice the bound: a job's ciphertext buffer is made when a worker
		// first seals it, which trails its dispatch; by now the last job
		// made has also been retired once.
		for i := 0; i < 2*(2*workers+1)*chunk/len(piece); i++ {
			if _, err := w.Write(piece); err != nil {
				t.Fatal(err)
			}
		}
		// Counted over a whole MiB (16 chunks), not per call:
		// testing.AllocsPerRun rounds down, and a few allocations per chunk
		// would read 0. The best of five rounds, because a goroutine that
		// blocks on a channel may take a sudog from the heap when a GC has
		// just emptied the runtime's cache; anything the writer allocates per
		// chunk shows in every round.
		best := ^uint64(0)
		for round := 0; round < 5 && best != 0; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < (1<<20)/len(piece); i++ {
				if _, err := w.Write(piece); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		if best != 0 {
			t.Errorf("workers=%d: %d allocations writing 1 MiB in steady state, want 0", workers, best)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
