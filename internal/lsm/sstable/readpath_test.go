package sstable

import (
	"fmt"
	"sync/atomic"
	"testing"

	"shield/internal/cache"
	"shield/internal/crypt"
	"shield/internal/lsm/base"
	"shield/internal/vfs"
)

// countingFile counts the ReadAt calls the table reader issues: the outer
// side of a sealed file, whose inner side vfs.CountingFS counts.
type countingFile struct {
	vfs.RandomAccessFile
	reads atomic.Int64
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.RandomAccessFile.ReadAt(p, off)
}

// TestTableOpenAndGetInnerReads pins the read path's cost in storage reads
// on a sealed ~2 MiB table, the way SHIELD wraps one: opening it is at most
// two reads at either level however many metadata blocks it carries, and a
// Get that misses the block cache is exactly one.
func TestTableOpenAndGetInnerReads(t *testing.T) {
	sealer, err := crypt.NewSealer(crypt.DEK{1, 2, 3}, []byte("readpath"), []byte("hdr"))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 20000 // ~100 B entries: ~2 MiB of data blocks
	for name, filter := range map[string]bool{"bloom": true, "no filter": false} {
		cfs := vfs.NewCounting(vfs.NewMem())
		raw, err := cfs.Create("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(crypt.NewSealedWriter(raw, sealer, 0, 0), WriterOptions{})
		if !filter {
			withoutFilter(w)
		}
		for i := 0; i < keys; i++ {
			ikey := base.MakeInternalKey([]byte(fmt.Sprintf("key-%08d", i)), 1, base.KindSet)
			if err := w.Add(ikey, []byte(fmt.Sprintf("%080d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		inner, err := cfs.Open("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := crypt.NewSealedReaderAt(inner, sealer, 0)
		if err != nil {
			t.Fatal(err)
		}
		outer := &countingFile{RandomAccessFile: sealed}
		innerReads := func() int64 { return cfs.Stats.Snapshot().ReadOps }

		r, err := NewReader(outer, ReaderOptions{Cache: cache.New(1 << 20), FileNum: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o, i := outer.reads.Load(), innerReads(); o > 2 || i > 2 {
			t.Errorf("%s: table open took %d outer and %d inner reads, want at most 2 of each", name, o, i)
		}

		for pass, want := range []int64{1, 0} { // miss, then the same block from the cache
			beforeOuter, beforeInner := outer.reads.Load(), innerReads()
			if _, _, err := r.Get([]byte(fmt.Sprintf("key-%08d", keys/2)), 100); err != nil {
				t.Fatalf("%s: Get: %v", name, err)
			}
			if o, i := outer.reads.Load()-beforeOuter, innerReads()-beforeInner; o != want || i != want {
				t.Errorf("%s: Get pass %d took %d outer and %d inner reads, want %d of each", name, pass, o, i, want)
			}
		}
		r.Close()
	}
}

// writeLog records the Write calls a table writer issues.
type writeLog struct {
	vfs.WritableFile
	writes []int // length of each Write
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.WritableFile.Write(p)
}

// TestWriterOneWritePerBlock: the writer hands the file exactly one Write
// per block — every data block, then filter, index, properties and footer —
// and each Write is exactly the span its handle names, so a file layer that
// frames each Write on its own (a sealed body) serves every block read from
// one frame.
func TestWriterOneWritePerBlock(t *testing.T) {
	for name, filter := range map[string]bool{"bloom": true, "no filter": false} {
		fs := vfs.NewMem()
		raw, err := fs.Create("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		log := &writeLog{WritableFile: raw}
		w := NewWriter(log, WriterOptions{})
		if !filter {
			withoutFilter(w)
		}
		for i := 0; i < 3000; i++ {
			if err := w.Add(base.MakeInternalKey([]byte(fmt.Sprintf("key-%08d", i)), 1, base.KindSet), []byte(fmt.Sprintf("%080d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(f, ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for i := 0; i < r.index.n; i++ {
			want = append(want, int(r.index.handle(i).length))
		}
		if filter {
			want = append(want, len(r.filter)+1+blockTrailerLen)
		}
		// The index and properties blocks, whose lengths the footer names.
		want = append(want, -1, -1, footerLen)
		if len(log.writes) != len(want) {
			t.Fatalf("%s: %d Writes for %d data blocks, want %d", name, len(log.writes), r.index.n, len(want))
		}
		for i, n := range want {
			if n >= 0 && log.writes[i] != n {
				t.Fatalf("%s: Write %d is %d bytes, want its block's %d", name, i, log.writes[i], n)
			}
		}
		r.Close()
	}
}
