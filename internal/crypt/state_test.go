package crypt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"shield/internal/vfs"
)

const testStateMagic = 0x54534554

var (
	testStateAES = DEK{1, 2, 3}
	testStateMAC = bytes.Repeat([]byte{7}, 32)
)

// sealStateFile builds a sealed state file with nothing but the primitives
// and the documented layout, the way older builds wrote one.
func sealStateFile(magic uint32, extra []byte, aes DEK, mac, payload []byte) []byte {
	iv := [IVSize]byte{9, 8, 7}
	out := binary.LittleEndian.AppendUint32(nil, magic)
	out = binary.LittleEndian.AppendUint32(out, stateVersion)
	out = append(append(out, extra...), iv[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	hdrLen := len(out)
	out = append(out, make([]byte, len(payload))...)
	if err := EncryptAt(aes, iv, out[hdrLen:], payload, 0); err != nil {
		panic(err)
	}
	return append(out, HMACSHA256(mac, out)...)
}

// testStateKeys returns the test keys, the HMAC key as a copy the decoder
// wipes, recording the extra bytes it is handed in *seen.
func testStateKeys(seen *[]byte) func(extra []byte) (DEK, []byte) {
	return func(extra []byte) (DEK, []byte) {
		*seen = append((*seen)[:0], extra...)
		return testStateAES, append([]byte(nil), testStateMAC...)
	}
}

// TestStateFileLayout: the decoder reads a file built from the documented
// layout, with the cache's 16 extra bytes and with the KDS's none, hands
// the key function exactly the extra bytes, and wipes the HMAC key it gets.
func TestStateFileLayout(t *testing.T) {
	for _, extra := range [][]byte{nil, bytes.Repeat([]byte{0xab}, 16)} {
		payload := []byte(`{"some":"secret payload"}`)
		data := sealStateFile(testStateMagic, extra, testStateAES, testStateMAC, payload)
		if bytes.Contains(data, payload) {
			t.Fatal("payload on disk in the clear")
		}
		var seen, mac []byte
		got, err := DecodeStateFile(data, testStateMagic, len(extra), func(e []byte) (DEK, []byte) {
			aes, m := testStateKeys(&seen)(e)
			mac = m
			return aes, m
		})
		if err != nil || !bytes.Equal(got, payload) || !bytes.Equal(seen, extra) {
			t.Fatalf("extra=%d: DecodeStateFile = %q, %v (extra %x)", len(extra), got, err, seen)
		}
		if !bytes.Equal(mac, make([]byte, len(testStateMAC))) {
			t.Fatal("the HMAC key outlived the decode")
		}
	}
}

// TestStateFileErrorClasses: damage that cannot be a key mismatch is
// ErrStateCorrupt, and everything the tag catches is ErrStateAuth. Callers
// build their policies on the split.
func TestStateFileErrorClasses(t *testing.T) {
	good := sealStateFile(testStateMagic, []byte("0123456789abcdef"), testStateAES, testStateMAC, []byte("payload"))
	var seen []byte
	decode := func(b []byte) error {
		_, err := DecodeStateFile(b, testStateMagic, 16, testStateKeys(&seen))
		return err
	}
	mutate := func(fn func([]byte) []byte) error { return decode(fn(append([]byte(nil), good...))) }
	for name, c := range map[string]struct {
		fn   func([]byte) []byte
		want error
	}{
		"truncated":     {func(b []byte) []byte { return b[:20] }, ErrStateCorrupt},
		"tail cut":      {func(b []byte) []byte { return b[:len(b)-1] }, ErrStateCorrupt},
		"bad magic":     {func(b []byte) []byte { b[0] ^= 1; return b }, ErrStateCorrupt},
		"len field":     {func(b []byte) []byte { b[8+16+IVSize]++; return b }, ErrStateCorrupt},
		"extra flipped": {func(b []byte) []byte { b[9] ^= 1; return b }, ErrStateAuth},
		"iv flipped":    {func(b []byte) []byte { b[8+16] ^= 1; return b }, ErrStateAuth},
		"body flipped":  {func(b []byte) []byte { b[8+16+IVSize+4] ^= 1; return b }, ErrStateAuth},
		"tag flipped":   {func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrStateAuth},
	} {
		if err := mutate(c.fn); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", name, err, c.want)
		}
	}
	if err := mutate(func(b []byte) []byte { b[4] = 2; return b }); err == nil ||
		errors.Is(err, ErrStateCorrupt) || errors.Is(err, ErrStateAuth) {
		t.Errorf("unknown version: %v, want its own error", err)
	}
	_, err := DecodeStateFile(good, testStateMagic, 16, func([]byte) (DEK, []byte) {
		return testStateAES, bytes.Repeat([]byte{8}, 32)
	})
	if !errors.Is(err, ErrStateAuth) {
		t.Errorf("wrong key: %v", err)
	}
}

// kvState is a toy StateLog owner: a map whose records are "key=value".
type kvState struct {
	mu  sync.Mutex
	kv  map[string]string
	log *StateLog
}

func (s *kvState) live(emit func(rec []byte) error) error {
	for k, v := range s.kv {
		if err := emit([]byte(k + "=" + v)); err != nil {
			return err
		}
	}
	return nil
}

func (s *kvState) apply(rec []byte) error {
	k, v, ok := strings.Cut(string(rec), "=")
	if !ok {
		return fmt.Errorf("record %q: %w", rec, vfs.ErrIntegrity)
	}
	s.kv[k] = v
	return nil
}

// set applies and journals k=v and returns once it is durable.
func (s *kvState) set(k, v string) error {
	s.mu.Lock()
	s.kv[k] = v
	s.log.Seal([]byte(k + "=" + v))
	s.mu.Unlock()
	return s.log.Sync()
}

// openKV opens the toy state at "dir/kv" on fs: it replays what is there
// and checkpoints.
func openKV(t *testing.T, fs vfs.FS) *kvState {
	t.Helper()
	s := &kvState{kv: map[string]string{}}
	data, err := vfs.ReadFile(fs, "dir/kv")
	switch {
	case errors.Is(err, vfs.ErrNotFound):
	case err != nil:
		t.Fatal(err)
	default:
		r, err := NewRecordReader(data, testRecordMagic, len(testRecordExtra), func([]byte) (DEK, error) { return testRecordKey, nil })
		if err == nil {
			err = ReplayStateLog(r, s.apply)
		}
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	s.log = NewStateLog(fs, "dir/kv", testRecordMagic, testRecordExtra, testRecordKey, &s.mu, s.live)
	if err := s.log.Sync(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStateLogConcurrentSetsReplay: sets from several goroutines, enough
// to checkpoint several times, reach the file in the order they were
// applied: a reopen replays exactly the final state, and no temp is left.
func TestStateLogConcurrentSetsReplay(t *testing.T) {
	fs := vfs.NewCounting(vfs.NewMem())
	s := openKV(t, fs)
	const workers, ops = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := s.set(fmt.Sprintf("k%d", (w*7+i)%23), fmt.Sprintf("%d.%d", w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if creates := fs.Stats.Snapshot().Creates; creates < 3 {
		t.Fatalf("%d checkpoints over %d sets of 23 keys, want several", creates, workers*ops)
	}
	got := openKV(t, fs)
	if fmt.Sprint(got.kv) != fmt.Sprint(s.kv) {
		t.Fatalf("replayed %v, memory held %v", got.kv, s.kv)
	}
	if infos, _ := fs.List("dir"); len(infos) != 1 {
		t.Fatalf("files beside the log: %v", infos)
	}
}

// TestStateLogSyncsTogether: records sealed before a Sync are written by
// it, so the Syncs of their other callers write and sync nothing more.
func TestStateLogSyncsTogether(t *testing.T) {
	fs := vfs.NewCounting(vfs.NewMem())
	s := openKV(t, fs)
	s.mu.Lock()
	for i := 0; i < 3; i++ {
		s.kv[fmt.Sprint(i)] = "v"
		s.log.Seal([]byte(fmt.Sprint(i) + "=v"))
	}
	s.mu.Unlock()
	before := fs.Stats.Snapshot()
	for i := 0; i < 3; i++ {
		if err := s.log.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if d := fs.Stats.Snapshot().Sub(before); d.WriteOps != 1 || d.Syncs != 1 {
		t.Fatalf("three sealed records took %d writes and %d syncs, want 1 and 1", d.WriteOps, d.Syncs)
	}
	if got := openKV(t, fs); len(got.kv) != 3 {
		t.Fatalf("replayed %v", got.kv)
	}
}

// TestStateLogCheckpointsAfterFailedWrite: a write that fails may leave a
// torn record, so the next record goes to a checkpoint, not after it, and
// the failed mutation, still in the state, is written by that checkpoint.
func TestStateLogCheckpointsAfterFailedWrite(t *testing.T) {
	base := vfs.NewMem()
	fs := vfs.NewFault(base, 1)
	s := openKV(t, fs)
	if err := s.set("a", "1"); err != nil {
		t.Fatal(err)
	}
	fs.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: "dir/kv", Count: 1, TornBytes: 5, Err: vfs.ErrNoSpace})
	if err := s.set("b", "2"); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("set on a full disk: %v", err)
	}
	data, err := vfs.ReadFile(base, "dir/kv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readTail(data); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("the failed write left %v, want a torn record", err)
	}
	if err := s.set("c", "3"); err != nil {
		t.Fatal(err)
	}
	data, err = vfs.ReadFile(base, "dir/kv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readTail(data); err != io.EOF {
		t.Fatalf("after the next set the log ends in %v, want a clean end", err)
	}
	if got := openKV(t, base); fmt.Sprint(got.kv) != "map[a:1 b:2 c:3]" {
		t.Fatalf("replayed %v", got.kv)
	}
}

// readTail reads the toy log in data to its end and returns the error that
// ended it.
func readTail(data []byte) (int, error) {
	r, err := NewRecordReader(data, testRecordMagic, len(testRecordExtra), func([]byte) (DEK, error) { return testRecordKey, nil })
	if err != nil {
		return 0, err
	}
	for n := 0; ; n++ {
		if _, err := r.Next(); err != nil {
			return n, err
		}
	}
}

// TestReplayStateLogNeedsMarker: a log whose first record is not the
// checkpoint marker was cut, not written, and one with a marker later on
// was tampered with.
func TestReplayStateLogNeedsMarker(t *testing.T) {
	replay := func(recs ...[]byte) error {
		r, err := NewRecordReader(writeRecordLog(t, "pref", recs...), testRecordMagic, len(testRecordExtra), func([]byte) (DEK, error) { return testRecordKey, nil })
		if err != nil {
			t.Fatal(err)
		}
		return ReplayStateLog(r, func([]byte) error { return nil })
	}
	if err := replay(); !errors.Is(err, ErrStateCorrupt) {
		t.Errorf("empty log: %v, want ErrStateCorrupt", err)
	}
	if err := replay([]byte("a=1")); !errors.Is(err, vfs.ErrIntegrity) {
		t.Errorf("no marker: %v, want an integrity error", err)
	}
	if err := replay([]byte{0}, []byte("a=1"), []byte{0}); !errors.Is(err, vfs.ErrIntegrity) {
		t.Errorf("second marker: %v, want an integrity error", err)
	}
	if err := replay([]byte{0}, []byte("a=1")); err != nil {
		t.Errorf("marker and a record: %v", err)
	}
}
