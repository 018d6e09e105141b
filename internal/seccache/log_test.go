package seccache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/vfs"
)

const logHeaderLen = 8 + saltSize + 8

// recordSpans returns the [start, end) offsets of the records of a cache
// log.
func recordSpans(t *testing.T, data []byte) [][2]int {
	t.Helper()
	var spans [][2]int
	for off := logHeaderLen; off < len(data); {
		end := off + 4 + int(binary.LittleEndian.Uint32(data[off:])&crypt.RecordMaxLen) + 16 + 1
		if end > len(data) {
			t.Fatalf("record at %d runs past the file", off)
		}
		spans = append(spans, [2]int{off, end})
		off = end
	}
	return spans
}

// endsTorn reports whether the cache log in data, under the passkey "pw",
// ends in a torn record.
func endsTorn(t *testing.T, data []byte) bool {
	t.Helper()
	var c Cache
	r, err := c.logReader(data, []byte("pw"))
	if err != nil {
		return false
	}
	for {
		if _, err := r.Next(); err != nil {
			return errors.Is(err, crypt.ErrTornRecord)
		}
	}
}

// filledCache opens a cache at cache.bin on a fresh memfs and stores three
// DEKs and a floor, appended after Open's checkpoint.
func filledCache(t *testing.T) (*vfs.MemFS, []byte) {
	t.Helper()
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(kds.KeyID(fmt.Sprintf("dek-%d", i)), mustDEK(t)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SealEpoch("db", 9); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(fs, "cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	return fs, data
}

// TestTamperedLogFailsClosed: a flipped byte in any record, two records
// swapped, and a record spliced in from another cache under the same
// passkey (and the same salt, so the same key) each fail the open with
// ErrBadPasskey, as a failed HMAC did in the v1 layout. A bad magic or a
// truncated header cold-starts with Recovered(); a cut at a record boundary
// opens as an older cache (the log alone cannot tell; rollback detection
// is not the cache's to do).
func TestTamperedLogFailsClosed(t *testing.T) {
	_, data := filledCache(t)
	spans := recordSpans(t, data)
	if len(spans) != 5 { // marker, three puts, one epoch
		t.Fatalf("%d records in the log, want 5", len(spans))
	}

	// Another cache with the same salt and passkey: a copy of the file,
	// opened (a checkpoint under a new nonce prefix) and written to.
	otherFS := vfs.NewMem()
	if err := vfs.WriteFile(otherFS, "cache.bin", data); err != nil {
		t.Fatal(err)
	}
	other, err := Open(otherFS, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put("dek-9", mustDEK(t)); err != nil {
		t.Fatal(err)
	}
	otherData, err := vfs.ReadFile(otherFS, "cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	if string(otherData[8:8+saltSize]) != string(data[8:8+saltSize]) {
		t.Fatal("the copy's checkpoint changed the salt")
	}
	otherSpans := recordSpans(t, otherData)

	open := func(b []byte) (*Cache, error) {
		fs := vfs.NewMem()
		if err := vfs.WriteFile(fs, "cache.bin", b); err != nil {
			t.Fatal(err)
		}
		return Open(fs, "cache.bin", []byte("pw"))
	}
	rng := rand.New(rand.NewSource(3))
	cases := map[string][]byte{}
	for i, sp := range spans {
		flipped := append([]byte(nil), data...)
		flipped[sp[0]+rng.Intn(sp[1]-sp[0])] ^= byte(1 + rng.Intn(255))
		cases[fmt.Sprintf("flip in record %d", i)] = flipped
	}
	swap := append([]byte(nil), data[:spans[1][0]]...)
	swap = append(swap, data[spans[2][0]:spans[2][1]]...)
	swap = append(swap, data[spans[1][0]:spans[1][1]]...)
	cases["records 1 and 2 swapped"] = append(swap, data[spans[3][0]:]...)
	for i := 1; i < 4; i++ {
		spliced := append([]byte(nil), data[:spans[i][0]]...)
		spliced = append(spliced, otherData[otherSpans[i][0]:otherSpans[i][1]]...)
		cases[fmt.Sprintf("record %d from another cache", i)] = append(spliced, data[spans[i][1]:]...)
	}
	cases["another cache's last record appended"] = append(append([]byte(nil), data...), otherData[otherSpans[len(otherSpans)-1][0]:]...)
	for name, b := range cases {
		if _, err := open(b); err != ErrBadPasskey {
			t.Errorf("%s: open returned %v, want ErrBadPasskey", name, err)
		}
	}

	for name, b := range map[string][]byte{
		"bad magic":        append([]byte{data[0] ^ 0xFF}, data[1:]...),
		"truncated header": data[:logHeaderLen-3],
		"header only":      data[:logHeaderLen],
	} {
		c, err := open(b)
		if err != nil || !c.Recovered() || c.Len() != 0 {
			t.Errorf("%s: err=%v, want a cold start with Recovered()", name, err)
		}
	}

	c, err := open(data[:spans[3][0]])
	if err != nil || c.Recovered() || c.Len() != 2 {
		t.Fatalf("cut after record 2: err=%v recovered=%v len=%d, want the older cache of 2", err, c.Recovered(), c.Len())
	}
}

// TestZeroFilledLastRecordOpens: a last record only partly written and
// zero-filled to its length or past it (the file's new size reached the
// disk before all of its data) opens as the log before that record, not as
// corruption: the cache is how a restarted server gets its DEKs back, so
// it must not refuse to open after a crash.
func TestZeroFilledLastRecordOpens(t *testing.T) {
	_, data := filledCache(t)
	spans := recordSpans(t, data)
	last := spans[len(spans)-1] // the epoch record
	for cut := last[0]; cut < last[1]; cut++ {
		for _, size := range []int{last[1], last[1] + 40} {
			b := append(append([]byte(nil), data[:cut]...), make([]byte, size-cut)...)
			fs := vfs.NewMem()
			if err := vfs.WriteFile(fs, "cache.bin", b); err != nil {
				t.Fatal(err)
			}
			if !endsTorn(t, b) {
				t.Fatalf("cut at %d, zeros to %d: not read as a torn record", cut, size)
			}
			c, err := Open(fs, "cache.bin", []byte("pw"))
			if err != nil {
				t.Fatalf("cut at %d, zeros to %d: %v", cut, size, err)
			}
			if c.Recovered() || c.Len() != 3 {
				t.Fatalf("cut at %d, zeros to %d: recovered=%v len=%d, want the 3 DEKs before the record", cut, size, c.Recovered(), c.Len())
			}
			if _, ok := c.EpochFloor("db"); ok {
				t.Fatalf("cut at %d, zeros to %d: the torn epoch record was applied", cut, size)
			}
		}
	}
}

// cacheFile returns the bytes of cache.bin on fs.
func cacheFile(t *testing.T, fs vfs.FS) []byte {
	t.Helper()
	data, err := vfs.ReadFile(fs, "cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openCopy opens a copy of the cache file of fs, leaving fs as it is.
func openCopy(t *testing.T, fs vfs.FS) (*Cache, error) {
	t.Helper()
	cp := vfs.NewMem()
	if err := vfs.WriteFile(cp, "cache.bin", cacheFile(t, fs)); err != nil {
		t.Fatal(err)
	}
	return Open(cp, "cache.bin", []byte("pw"))
}

// TestPutAfterFailedAppendCheckpoints: an append that fails (ENOSPC here,
// counted as a dropped save) may leave a torn record, so the next mutation
// rewrites the file instead of appending after it, and nothing acknowledged
// is lost.
func TestPutAfterFailedAppendCheckpoints(t *testing.T) {
	base := vfs.NewMem()
	fs := vfs.NewFault(base, 1)
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustDEK(t), mustDEK(t)
	if err := c.Put("dek-a", a); err != nil {
		t.Fatal(err)
	}
	fs.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: "cache.bin", Count: 1, TornBytes: 9, Err: vfs.ErrNoSpace})
	if err := c.Put("dek-b", b); err != nil {
		t.Fatalf("Put on a full disk: %v, want nil (a dropped save)", err)
	}
	if data := cacheFile(t, base); !endsTorn(t, data) {
		t.Fatal("the failed append left no torn record")
	}
	torn, err := openCopy(t, base)
	if err != nil || torn.Len() != 1 {
		t.Fatalf("file after the failed append: err=%v len=%d, want the DEK before the torn record", err, torn.Len())
	}
	if err := c.Delete("dek-a"); err != nil {
		t.Fatal(err)
	}
	if endsTorn(t, cacheFile(t, base)) {
		t.Fatal("the next mutation appended after the torn record")
	}
	c2, err := openCopy(t, base)
	if err != nil || c2.Len() != 1 {
		t.Fatalf("after the next mutation: err=%v len=%d, want a whole log of 1", err, c2.Len())
	}
	if got, err := c2.Get("dek-b"); err != nil || got != b {
		t.Fatalf("dek-b after the checkpoint: %v", err)
	}
}

// TestConcurrentMutationsReplay: Put, Delete, Get and SealEpoch from several
// goroutines, enough to checkpoint several times; after they finish, a
// reopen replays exactly the final in-memory state.
func TestConcurrentMutationsReplay(t *testing.T) {
	fs := vfs.NewMem()
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	const workers, ops = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				id := kds.KeyID(fmt.Sprintf("dek-%d", rng.Intn(40)))
				var err error
				switch rng.Intn(4) {
				case 0, 1:
					var dek crypt.DEK
					rng.Read(dek[:])
					err = c.Put(id, dek)
				case 2:
					err = c.Delete(id)
				case 3:
					err = c.SealEpoch(fmt.Sprintf("store-%d", rng.Intn(3)), uint64(rng.Intn(1000)))
				}
				if err != nil {
					t.Error(err)
					return
				}
				c.Get(id) //nolint:errcheck // a miss is fine
			}
		}(w)
	}
	wg.Wait()

	c2, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c2.entries) != len(c.entries) || len(c2.epochs) != len(c.epochs) {
		t.Fatalf("replayed %d DEKs and %d floors, memory held %d and %d", len(c2.entries), len(c2.epochs), len(c.entries), len(c.epochs))
	}
	for id, dek := range c.entries {
		if c2.entries[id] != dek {
			t.Fatalf("DEK %s differs after replay", id)
		}
	}
	for s, e := range c.epochs {
		if c2.epochs[s] != e {
			t.Fatalf("floor of %s: %d after replay, %d in memory", s, c2.epochs[s], e)
		}
	}
}

// TestOpenSurvivesFailedCheckpoint: if Open's checkpoint cannot be written,
// the cache it loaded is served, the file on disk is still that cache, and
// the first mutation writes the checkpoint.
func TestOpenSurvivesFailedCheckpoint(t *testing.T) {
	base, _ := filledCache(t)
	fs := vfs.NewFault(base, 1)
	fs.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: "cache.bin", Count: 1})
	c, err := Open(fs, "cache.bin", []byte("pw"))
	if err != nil || c.Len() != 3 {
		t.Fatalf("open with a failing checkpoint: err=%v len=%d", err, c.Len())
	}
	if err := c.Put("dek-new", mustDEK(t)); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(base, "cache.bin", []byte("pw"))
	if err != nil || c2.Len() != 4 {
		t.Fatalf("reopen: err=%v len=%d, want 4", err, c2.Len())
	}
	if e, ok := c2.EpochFloor("db"); !ok || e != 9 {
		t.Fatalf("floor after the deferred checkpoint: %d, %v", e, ok)
	}
}
