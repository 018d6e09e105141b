//go:build !race

package sstable

import (
	"fmt"
	"testing"

	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

// Allocation counts mean nothing under the race detector, hence the build
// tag; `make io-path-check` runs these without -race.

// TestTableOpenAllocs pins the format-2 table open's mechanism: three
// allocations — the reader, the footer and the metadata span — however many
// index entries the table has, because the index is searched where it lies
// in the metadata span and the properties decode into the reader.
func TestTableOpenAllocs(t *testing.T) {
	counts := map[int]float64{}
	for _, keys := range []int{20_000, 80_000} {
		fs := vfs.NewMem()
		f, err := fs.Create("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(f, WriterOptions{})
		for i := 0; i < keys; i++ {
			ikey := base.MakeInternalKey([]byte(fmt.Sprintf("key-%08d", i)), 1, base.KindSet)
			if err := w.Add(ikey, []byte(fmt.Sprintf("%080d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		raf, err := fs.Open("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		defer raf.Close()
		var blocks uint64
		counts[keys] = testing.AllocsPerRun(50, func() {
			r, err := NewReader(raf, ReaderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			blocks = r.Properties().DataBlocks
		})
		t.Logf("%d keys, %d index entries: %.0f allocations per open", keys, blocks, counts[keys])
	}
	if counts[20_000] != counts[80_000] || counts[80_000] > 3 {
		t.Fatalf("allocations per open: %v; want the same for both tables, at most 3", counts)
	}
}
