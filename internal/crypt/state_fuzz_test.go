package crypt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

// cacheSaltLen is the extra-bytes length of a secure DEK cache file: its
// PBKDF2 salt.
const cacheSaltLen = 16

// FuzzStateFile: on any file bytes, StateFile.Load succeeds or fails with
// ErrStateCorrupt, ErrStateAuth or ErrStateVersion. It never panics, hands
// derive exactly the extra bytes, and allocates a small multiple of the
// input. Seeded with a real secure-cache file (which fails authentication
// under the fuzz keys, after every structural check) and with a file sealed
// under them (which loads).
func FuzzStateFile(f *testing.F) {
	fs := vfs.NewMem()
	cache, err := seccache.Open(fs, "cache.bin", []byte("passkey"))
	if err != nil {
		f.Fatal(err)
	}
	for _, id := range []kds.KeyID{"dek-1", "dek-2"} {
		dek, err := crypt.NewDEK()
		if err != nil {
			f.Fatal(err)
		}
		if err := cache.Put(id, dek); err != nil {
			f.Fatal(err)
		}
	}
	real, err := vfs.ReadFile(fs, "cache.bin")
	if err != nil {
		f.Fatal(err)
	}
	magic := binary.LittleEndian.Uint32(real)
	state := func(fs vfs.FS) *crypt.StateFile {
		return &crypt.StateFile{FS: fs, Path: "state", Magic: magic, Extra: bytes.Repeat([]byte{5}, cacheSaltLen),
			AES: crypt.DEK{1, 2, 3}, HMAC: bytes.Repeat([]byte{7}, 32)}
	}
	if err := state(fs).Save(func() ([]byte, error) { return []byte(`{"dek-1":"secret"}`), nil }); err != nil {
		f.Fatal(err)
	}
	sealed, err := vfs.ReadFile(fs, "state")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := state(fs).Load(cacheSaltLen, nil); err != nil {
		f.Fatalf("sealed seed: %v", err)
	}
	if err := vfs.WriteFile(fs, "state", real); err != nil {
		f.Fatal(err)
	}
	if _, err := state(fs).Load(cacheSaltLen, nil); !errors.Is(err, crypt.ErrStateAuth) {
		f.Fatalf("secure-cache seed: %v, want ErrStateAuth", err)
	}
	f.Add(real)
	f.Add(sealed)
	f.Add(real[:40])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMem()
		if err := vfs.WriteFile(fs, "state", data); err != nil {
			t.Fatal(err)
		}
		sf := state(fs)
		var (
			plain  []byte
			loaded error
			before runtime.MemStats
			after  runtime.MemStats
		)
		runtime.ReadMemStats(&before)
		plain, loaded = sf.Load(cacheSaltLen, func(extra []byte) {
			if len(extra) != cacheSaltLen || !bytes.Equal(extra, data[8:8+cacheSaltLen]) {
				t.Fatalf("derive got %d extra bytes %x", len(extra), extra)
			}
		})
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data))+16<<10; n > budget {
			t.Fatalf("%d bytes allocated for %d of input", n, len(data))
		}
		if loaded != nil {
			if !errors.Is(loaded, crypt.ErrStateCorrupt) && !errors.Is(loaded, crypt.ErrStateAuth) && !errors.Is(loaded, crypt.ErrStateVersion) {
				t.Fatalf("untyped error %v", loaded)
			}
			return
		}
		if want := len(data) - (8 + cacheSaltLen + crypt.IVSize + 4 + 32); len(plain) != want {
			t.Fatalf("loaded %d payload bytes from a %d-byte file, want %d", len(plain), len(data), want)
		}
	})
}
