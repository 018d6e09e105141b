package seccache

import (
	"fmt"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/vfs"
)

// TestPutBytesConstant: the bytes a Put writes do not grow with the cache.
// A Put that does not checkpoint (it creates no file) writes the same bytes
// with 100 live DEKs as with 10 000, and over one whole checkpoint period
// (from one checkpointing Put to the next, live set unchanged) the bytes
// per Put stay within twice that figure. Only the public API and the
// CountingFS are used, so the test runs against any build of the cache.
func TestPutBytesConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a cache of 10 000 DEKs")
	}
	single := map[int]int64{}
	for _, live := range []int{100, 10000} {
		fs := vfs.NewCounting(vfs.NewMem())
		c, err := Open(fs, "cache.bin", []byte("pw"))
		if err != nil {
			t.Fatal(err)
		}
		id := func(i int) kds.KeyID { return kds.KeyID(fmt.Sprintf("dek-%05d", i)) }
		var dek crypt.DEK
		for i := 0; i < live; i++ {
			if err := c.Put(id(i), dek); err != nil {
				t.Fatal(err)
			}
		}
		// Re-Put the live DEKs round robin until two checkpoints have run;
		// the live set stays the same size throughout.
		var (
			period     []int64 // bytes of each Put since the last checkpoint
			periodSum  int64
			checkpoint int
		)
		for i := 0; checkpoint < 2; i++ {
			if i > 3*live+1000 {
				t.Fatalf("%d live: no checkpoint in %d Puts", live, i)
			}
			before := fs.Stats.Snapshot()
			if err := c.Put(id(i%live), dek); err != nil {
				t.Fatal(err)
			}
			d := fs.Stats.Snapshot().Sub(before)
			if d.Creates == 0 {
				if _, ok := single[live]; !ok {
					single[live] = d.BytesWritten
				} else if single[live] != d.BytesWritten {
					t.Fatalf("%d live: appending Puts wrote %d and %d bytes", live, single[live], d.BytesWritten)
				}
			}
			if checkpoint == 1 {
				period = append(period, d.BytesWritten)
				periodSum += d.BytesWritten
			}
			if d.Creates > 0 {
				checkpoint++
			}
		}
		s, ok := single[live]
		if !ok {
			t.Errorf("%d live: every Put rewrote the cache (%d bytes per Put over the last period)", live, periodSum/int64(len(period)))
			continue
		}
		avg := float64(periodSum) / float64(len(period))
		t.Logf("%d live: %d bytes per appending Put, %.1f per Put over a checkpoint period of %d Puts", live, s, avg, len(period))
		if avg > 2*float64(s) {
			t.Errorf("%d live: %.1f bytes per Put over a checkpoint period, more than twice the %d of an appending Put", live, avg, s)
		}
	}
	if single[100] != single[10000] {
		t.Errorf("an appending Put writes %d bytes with 100 live DEKs and %d with 10 000", single[100], single[10000])
	}
}
