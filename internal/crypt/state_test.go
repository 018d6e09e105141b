package crypt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"shield/internal/vfs"
)

func testStateFile(fs vfs.FS, extra []byte) *StateFile {
	return &StateFile{FS: fs, Path: "dir/state", Magic: 0x54534554, Extra: extra,
		AES: DEK{1, 2, 3}, HMAC: bytes.Repeat([]byte{7}, 32)}
}

// TestStateFileLayout decodes what Save wrote with nothing but the primitives
// and the documented layout — the way the two hand-written readers this type
// replaced did — with the cache's 16 extra bytes and with the KDS's none.
func TestStateFileLayout(t *testing.T) {
	for _, extra := range [][]byte{nil, bytes.Repeat([]byte{0xab}, 16)} {
		fs := vfs.NewMem()
		f := testStateFile(fs, extra)
		payload := []byte(`{"some":"secret payload"}`)
		if err := f.Save(func() ([]byte, error) { return append([]byte(nil), payload...), nil }); err != nil {
			t.Fatal(err)
		}
		data, err := vfs.ReadFile(fs, "dir/state")
		if err != nil {
			t.Fatal(err)
		}
		hdrLen := 4 + 4 + len(extra) + IVSize + 4
		if len(data) != hdrLen+len(payload)+32 {
			t.Fatalf("extra=%d: file is %d bytes, want %d", len(extra), len(data), hdrLen+len(payload)+32)
		}
		if m, v := binary.LittleEndian.Uint32(data[0:4]), binary.LittleEndian.Uint32(data[4:8]); m != f.Magic || v != 1 {
			t.Fatalf("magic %#x version %d", m, v)
		}
		if !bytes.Equal(data[8:8+len(extra)], extra) {
			t.Fatalf("extra bytes %x, want %x", data[8:8+len(extra)], extra)
		}
		if n := binary.LittleEndian.Uint32(data[hdrLen-4 : hdrLen]); int(n) != len(payload) {
			t.Fatalf("len field %d, want %d", n, len(payload))
		}
		if !VerifyHMACSHA256(f.HMAC, data[:hdrLen+len(payload)], data[hdrLen+len(payload):]) {
			t.Fatal("tag does not cover magic..ciphertext")
		}
		var iv [IVSize]byte
		copy(iv[:], data[8+len(extra):])
		plain := make([]byte, len(payload))
		if err := EncryptAt(f.AES, iv, plain, data[hdrLen:hdrLen+len(payload)], 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, payload) {
			t.Fatalf("payload %q, want %q", plain, payload)
		}
		if bytes.Contains(data, payload) {
			t.Fatal("payload on disk in the clear")
		}

		// And the type reads its own file back, handing derive the extra bytes.
		g := testStateFile(fs, nil)
		var seen []byte
		got, err := g.Load(len(extra), func(e []byte) { seen = e })
		if err != nil || !bytes.Equal(got, payload) || !bytes.Equal(seen, extra) || !bytes.Equal(g.Extra, extra) {
			t.Fatalf("Load = %q, %v (extra %x)", got, err, seen)
		}
	}
}

// TestStateFileErrorClasses: damage that cannot be a key mismatch is
// ErrStateCorrupt, everything the tag catches is ErrStateAuth, and a missing
// file is vfs.ErrNotFound. Callers build their policies on the split.
func TestStateFileErrorClasses(t *testing.T) {
	fs := vfs.NewMem()
	f := testStateFile(fs, []byte("0123456789abcdef"))
	if _, err := f.Load(16, nil); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("no file: %v", err)
	}
	if err := f.Save(func() ([]byte, error) { return []byte("payload"), nil }); err != nil {
		t.Fatal(err)
	}
	good, _ := vfs.ReadFile(fs, "dir/state")
	mutate := func(fn func([]byte) []byte) error {
		if err := vfs.WriteFile(fs, "dir/state", fn(append([]byte(nil), good...))); err != nil {
			t.Fatal(err)
		}
		_, err := testStateFile(fs, nil).Load(16, nil)
		return err
	}
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
	wrongKey := testStateFile(fs, nil)
	wrongKey.HMAC = bytes.Repeat([]byte{8}, 32)
	vfs.WriteFile(fs, "dir/state", good)
	if _, err := wrongKey.Load(16, nil); !errors.Is(err, ErrStateAuth) {
		t.Errorf("wrong key: %v", err)
	}
}

// TestStateFileSavesInSnapshotOrder: racing savers each capture the state
// inside their turn, so the file on disk at the end is the last state
// captured, whichever goroutine wrote it.
func TestStateFileSavesInSnapshotOrder(t *testing.T) {
	fs := vfs.NewMem()
	f := testStateFile(fs, nil)
	var captured byte // guarded by the save's turn
	done := make(chan error)
	for i := 0; i < 16; i++ {
		go func() {
			done <- f.Save(func() ([]byte, error) { captured++; return []byte{captured}, nil })
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got, err := testStateFile(fs, nil).Load(0, nil)
	if err != nil || len(got) != 1 || got[0] != 16 {
		t.Fatalf("last state on disk = %v, %v; want [16]", got, err)
	}
	if infos, _ := fs.List("dir"); len(infos) != 1 {
		t.Fatalf("files beside the state file: %v", infos)
	}
}
