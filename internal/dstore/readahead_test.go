package dstore

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"shield/internal/core"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

// openPayload writes n random bytes as name and opens them for reading.
func openPayload(t *testing.T, client *Client, name string, n int) ([]byte, vfs.RandomAccessFile) {
	t.Helper()
	payload := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(payload)
	if err := vfs.WriteFile(client, name, payload); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return payload, f
}

// TestReadAheadSequentialFrames: a file read front to back in 4 KiB pieces
// costs one frame per 64 KiB packet, plus the first read, which has no
// previous read to continue.
func TestReadAheadSequentialFrames(t *testing.T) {
	srv, client := newPair(t, 0, 0)
	const size = 1 << 20
	payload, f := openPayload(t, client, "f", size)
	before := srv.Stats().ReadOps
	p := make([]byte, 4<<10)
	for off := 0; off < size; off += len(p) {
		if n, err := f.ReadAt(p, int64(off)); n != len(p) || err != nil {
			t.Fatalf("ReadAt(%d) = %d, %v", off, n, err)
		}
		if !bytes.Equal(p, payload[off:off+len(p)]) {
			t.Fatalf("bytes at %d differ", off)
		}
	}
	if frames, limit := srv.Stats().ReadOps-before, int64((size+writePacketSize-1)/writePacketSize+1); frames > limit {
		t.Fatalf("%d read frames for %d bytes in 4 KiB reads, want at most %d", frames, size, limit)
	}
}

// TestReadAheadRandomReadOneFrame: a read that does not continue the
// previous one is sent as it is — one frame of exactly its own length.
func TestReadAheadRandomReadOneFrame(t *testing.T) {
	srv, client := newPair(t, 0, 0)
	payload, f := openPayload(t, client, "f", 1<<20)
	p := make([]byte, 4<<10)
	for _, off := range []int64{512 << 10, 4 << 10, 900 << 10, 100 << 10, 96 << 10} {
		before := srv.Stats()
		if _, err := f.ReadAt(p, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, payload[off:off+int64(len(p))]) {
			t.Fatalf("bytes at %d differ", off)
		}
		if d := srv.Stats().Sub(before); d.ReadOps != 1 || d.BytesRead != int64(len(p)) {
			t.Fatalf("random read at %d: %d frames, %d bytes; want 1 frame of %d", off, d.ReadOps, d.BytesRead, len(p))
		}
	}
}

// TestReadAheadInterleavedMatchesDirect: a sequential scanner (reads that
// overlap their predecessor, as a sealed reader's block-aligned reads do)
// and random point readers share one handle, as compaction and Gets share a
// table-cache reader; reads run up to and past EOF, on files shorter and
// longer than a packet. Every read returns what a direct read of the file
// returns. Run it under -race.
func TestReadAheadInterleavedMatchesDirect(t *testing.T) {
	_, client := newPair(t, 0, 0)
	for _, size := range []int{5000, writePacketSize - 1, 300_000} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			payload, f := openPayload(t, client, fmt.Sprintf("f%d", size), size)
			direct := func(off int64, n int) ([]byte, error) {
				if off >= int64(size) {
					return nil, io.EOF
				}
				if end := off + int64(n); end > int64(size) {
					return payload[off:], io.EOF
				}
				return payload[off : off+int64(n)], nil
			}
			check := func(off int64, n int) error {
				p := make([]byte, n)
				got, err := f.ReadAt(p, off)
				want, wantErr := direct(off, n)
				if got != len(want) || !bytes.Equal(p[:got], want) || (err == nil) != (wantErr == nil) {
					return fmt.Errorf("ReadAt(%d bytes at %d) = %d, %v; want %d, %v", n, off, got, err, len(want), wantErr)
				}
				return nil
			}
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			wg.Add(1)
			go func() { // the scanner: 4112-byte reads stepping 4096, to past EOF
				defer wg.Done()
				for off := int64(0); off <= int64(size)+8192; off += 4096 {
					if err := check(off, 4112); err != nil {
						errs <- err
						return
					}
				}
			}()
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(seed int64) { // point readers, some of them at or past EOF
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 60; i++ {
						if err := check(rng.Int63n(int64(size)+100), 1+rng.Intn(9000)); err != nil {
							errs <- err
							return
						}
					}
				}(int64(g))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestReadAheadCompactRange: a full compaction of an encrypted tree over
// dstore reads the tree once, as one job whose input is exactly the tables
// live before the call, and reads it in packets. Each input file costs four
// reads that continue no previous one — the SHIELD header, then the table's
// footer and metadata, then the first data block — and its last packet is a
// partial one; everything else is one frame per 64 KiB of input. (Before
// read-ahead it was one frame per 4 KiB table block; before CompactRange
// became one job it read the tree once per level it passed through.)
func TestReadAheadCompactRange(t *testing.T) {
	srv, client := newPair(t, 0, 0)
	cfg := core.Config{
		Mode: core.ModeSHIELD, FS: client, WALBufferSize: 512,
		KDS: kds.NewLocal(kds.NewStore(kds.Policy{}), "compute-1"),
	}
	db, err := core.Open("db", cfg, lsm.Options{
		MemtableSize: 256 << 10, TargetFileSize: 512 << 10, BaseLevelSize: 4 << 20,
		L0CompactionTrigger: 100, // nothing compacts until CompactRange
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 100)
	for i := 0; i < 30_000; i++ {
		rng.Read(val)
		if err := db.Put([]byte(fmt.Sprintf("key%08d", rng.Intn(20_000))), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Compactions != 0 {
		t.Fatalf("%d compactions ran before CompactRange; the flushed tables are no longer the live ones", m.Compactions)
	}
	before := srv.Stats()
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	d, input := srv.Stats().Sub(before), db.Metrics().CompactionRead
	if input != m.FlushWritten {
		t.Fatalf("CompactRange read %d bytes of input; the live tables hold %d", input, m.FlushWritten)
	}
	packets := (input + writePacketSize - 1) / writePacketSize
	const perFile, slack = 4 + 1, 4
	t.Logf("input %d bytes (%d packets) in %d files: %d read frames", input, packets, d.Opens, d.ReadOps)
	if limit := packets + perFile*d.Opens + slack; d.ReadOps > limit {
		t.Fatalf("CompactRange: %d read frames for %d bytes of input in %d files, want at most %d", d.ReadOps, input, d.Opens, limit)
	}
}
