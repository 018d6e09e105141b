//go:build !race

package skiplist

import (
	"fmt"
	"runtime"
	"testing"
)

// TestInsertAllocs: an entry is carved from an arena chunk, so an Insert
// allocates only its share of one chunk. Counted with MemStats because
// testing.AllocsPerRun rounds down to a whole number. `make io-path-check`
// runs this without -race.
func TestInsertAllocs(t *testing.T) {
	const entries = 10000
	keys := make([][]byte, entries)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%08d", i*7919%entries))
	}
	l := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		l.Insert(k, 1, nil)
	}
	runtime.ReadMemStats(&after)
	if a := float64(after.Mallocs-before.Mallocs) / entries; a >= 0.05 {
		t.Errorf("Insert: %.3f allocs per entry over %d entries, want < 0.05", a, entries)
	}
}
