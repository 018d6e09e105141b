//go:build !race

package skiplist

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// TestInsertAllocs: nodes and towers come from slabs, so an Insert allocates
// only its share of one (a node and a tower each, before). Counted with
// MemStats because testing.AllocsPerRun rounds down to a whole number.
// `make io-path-check` runs this without -race.
func TestInsertAllocs(t *testing.T) {
	const entries = 10000
	keys := make([][]byte, entries)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%08d", i*7919%entries))
	}
	l := New(bytes.Compare)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		l.Insert(k, nil)
	}
	runtime.ReadMemStats(&after)
	if a := float64(after.Mallocs-before.Mallocs) / entries; a >= 0.05 {
		t.Errorf("Insert: %.3f allocs per entry over %d entries, want < 0.05", a, entries)
	}
}
