//go:build !race

package cache

import (
	"runtime"
	"testing"
)

// Allocation counts mean nothing under the race detector, hence the build
// tag; `make io-path-check` runs these without -race.

// TestPutAllocs: a Put that evicts allocates nothing. The new key takes the
// entry the previous eviction freed, and the cache stores the value slice
// itself. Counted over whole rounds of Puts, not per call:
// testing.AllocsPerRun rounds down and would pass anything below one
// allocation per call. The best of five rounds, because the Go map behind
// each shard's index still rehashes, rarely, as deletes leave tombstones in
// it; an allocation per Put shows in every round.
func TestPutAllocs(t *testing.T) {
	c := New(8 << 10)
	value := make([]byte, 100)
	i := uint64(0)
	put := func() {
		c.Put(Key{File: 1, Offset: i}, value, 100)
		i++
	}
	for i < 20000 { // fill every shard, so each further Put evicts
		put()
	}
	best := ^uint64(0)
	for round := 0; round < 5 && best != 0; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < 5000; n++ {
			put()
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if best != 0 {
		t.Errorf("5000 Puts that evict: %d allocations, want 0", best)
	}
}
