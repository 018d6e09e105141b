package vfs

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// The extent body replaced one flat []byte per file. These tests hold MemFS
// and CrashFS to that slice as an oracle, on the grid where an extent list
// can go wrong: sizes and offsets one either side of every extent boundary.

// oracleReadAt is what memRandom.ReadAt was over a flat slice.
func oracleReadAt(data, p []byte, off int64) (int, error) {
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// appendSizes is the issue's list: nothing, one byte, and an extent, give or
// take a byte, and a write spanning several extents.
var appendSizes = []int{0, 1, extentSize - 1, extentSize, extentSize + 1, 3*extentSize + 17}

// writeRandomAppends appends n randomly sized random pieces to f, then single
// bytes until the total is off every extent boundary, and returns what it
// wrote.
func writeRandomAppends(t *testing.T, rng *rand.Rand, f WritableFile, n int) []byte {
	t.Helper()
	var oracle []byte
	for i := 0; i < n || len(oracle)%extentSize < 2; i++ {
		size := 1
		if i < n {
			size = appendSizes[rng.Intn(len(appendSizes))]
		}
		p := make([]byte, size)
		rng.Read(p)
		if m, err := f.Write(p); err != nil || m != len(p) {
			t.Fatalf("Write(%d bytes) = %d, %v", len(p), m, err)
		}
		oracle = append(oracle, p...)
	}
	return oracle
}

// checkReads compares ReadAt with the oracle from every offset within one of
// an extent boundary or of EOF, at lengths within one of one and two extents
// and those ending at and past EOF, and a sequential Read in pieces that do
// not divide an extent.
func checkReads(t *testing.T, fsys FS, name string, oracle []byte) {
	t.Helper()
	f, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if size, err := f.Size(); err != nil || size != int64(len(oracle)) {
		t.Fatalf("Size = %d, %v; want %d", size, err, len(oracle))
	}
	offs := []int{0, 1, len(oracle) - 1, len(oracle), len(oracle) + 1}
	for b := extentSize; b <= len(oracle)+extentSize; b += extentSize {
		offs = append(offs, b-1, b, b+1)
	}
	got, want := make([]byte, len(oracle)+2), make([]byte, len(oracle)+2)
	for _, off := range offs {
		if off < 0 {
			continue
		}
		// Lengths around one and two extents, and the two that end at and
		// one past EOF.
		for _, n := range []int{0, 1, extentSize - 1, extentSize, extentSize + 1, 2*extentSize + 1, len(oracle) - off, len(oracle) - off + 1} {
			if n < 0 || n > len(got) {
				continue
			}
			rn, err := f.ReadAt(got[:n], int64(off))
			wn, werr := oracleReadAt(oracle, want[:n], int64(off))
			if rn != wn || err != werr || !bytes.Equal(got[:rn], want[:wn]) {
				t.Fatalf("ReadAt(len %d, off %d) = %d, %v; oracle %d, %v (bytes equal: %v)",
					n, off, rn, err, wn, werr, bytes.Equal(got[:rn], want[:wn]))
			}
		}
	}

	seq, err := fsys.OpenSequential(name)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	var read []byte
	piece := make([]byte, 1000)
	for {
		n, err := seq.Read(piece)
		read = append(read, piece[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil || n == 0 {
			t.Fatalf("sequential Read = %d, %v after %d bytes", n, err, len(read))
		}
	}
	if !bytes.Equal(read, oracle) {
		t.Fatalf("sequential read returned %d bytes, differing from the %d written", len(read), len(oracle))
	}
}

func TestMemFSBodyMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMem()
		f, err := m.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		oracle := writeRandomAppends(t, rng, f, 8)
		checkReads(t, m, "f", oracle)

		// Sync at that unaligned length, write on, crash: the file is cut
		// back to the synced prefix, and appends go on from there.
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		synced := len(oracle)
		writeRandomAppends(t, rng, f, 4)
		m.CrashUnsynced()
		checkReads(t, m, "f", oracle[:synced])
		oracle = append(oracle[:synced:synced], writeRandomAppends(t, rng, f, 4)...)
		checkReads(t, m, "f", oracle)
	}

	// A negative offset is an error, as on an *os.File, not a panic.
	m := NewMem()
	if err := WriteFile(m, "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	f, _ := m.Open("f")
	if n, err := f.ReadAt(make([]byte, 1), -1); n != 0 || err == nil || err == io.EOF {
		t.Fatalf("ReadAt(off -1) = %d, %v; want an error", n, err)
	}
}

func TestCrashFSBodyMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCrash(seed)
		f, err := c.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		oracle := writeRandomAppends(t, rng, f, 6)
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		synced := len(oracle)
		oracle = append(oracle, writeRandomAppends(t, rng, f, 5)...)
		if err := c.SyncDir("."); err != nil {
			t.Fatal(err)
		}
		checkReads(t, c, "f", oracle)

		img := c.Snapshot()
		e := img.entries["f"]
		if !bytes.Equal(e.durable, oracle[:synced]) || !bytes.Equal(e.volatile, oracle[synced:]) {
			t.Fatalf("snapshot split durable=%d volatile=%d bytes, want %d/%d with the oracle's content",
				len(e.durable), len(e.volatile), synced, len(oracle)-synced)
		}
		checkReads(t, img.Strict(), "f", oracle[:synced])
		// So does a CrashFS rebuilt from the image.
		next := NewCrashFrom(img, false, seed)
		checkReads(t, next, "f", oracle[:synced])
	}

	c := NewCrash(1)
	if err := WriteFile(c, "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	f, _ := c.Open("f")
	if n, err := f.ReadAt(make([]byte, 1), -1); n != 0 || err == nil || err == io.EOF {
		t.Fatalf("ReadAt(off -1) = %d, %v; want an error", n, err)
	}
}
