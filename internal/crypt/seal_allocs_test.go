//go:build !race

package crypt

import (
	"math/rand"
	"testing"
)

// Allocation counts mean nothing under the race detector (it instruments and
// allocates on its own), hence the build tag; `make read-path-check` runs
// these without -race.

// TestSealedReadAtAllocs: a sealed read allocates its ciphertext extent and
// nothing else, however many blocks it covers: no per-block ciphertext,
// plaintext, nonce or AAD buffers (the per-block loop cost three allocations
// a block, six for a straddling 4 KiB read).
func TestSealedReadAtAllocs(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 24*SealedBlockSize+77)
	rand.New(rand.NewSource(18)).Read(payload)
	r := mustOpenSealed(t, s, sealToMem(t, s, payload))
	for name, rd := range map[string]struct {
		off int64
		n   int
	}{
		"aligned 4 KiB":    {2 * SealedBlockSize, SealedBlockSize},
		"straddling 4 KiB": {2*SealedBlockSize + 1500, SealedBlockSize},
		"64 KiB":           {1500, 64 << 10},
	} {
		p := make([]byte, rd.n)
		if a := testing.AllocsPerRun(200, func() {
			if _, err := r.ReadAt(p, rd.off); err != nil {
				t.Fatal(err)
			}
		}); a != 1 {
			t.Errorf("%s ReadAt: %v allocs per call, want 1 (the extent)", name, a)
		}
	}
}

func TestSealOpenBlockAllocs(t *testing.T) {
	s, _ := newTestSealer(t)
	plain := make([]byte, SealedBlockSize)
	sealed := make([]byte, 0, sealedCipherBlock)
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
