package crypt_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"shield/internal/crypt"
	"shield/internal/vfs"
)

// cacheSaltLen is the extra-bytes length of a secure DEK cache file: its
// PBKDF2 salt.
const cacheSaltLen = 16

// v1CacheHex is a secure DEK cache file as builds before the record log
// wrote it: a StateFile with a 16-byte salt (two DEKs and one epoch floor,
// passkey "fixture-passkey"; the same bytes as seccache's parent fixture).
const v1CacheHex = "" +
	"48434353010000001a314a67594cf2daf5cd01e7f35db0fcf5b70c7eeeb79c663f58045e9b2725e06e000000601a6ddb" +
	"9f3989233d437bf55993b4ffa22c3c89f8d1f79c9e3fe04f9c53c8287f581db125ae27147b99b85d93532ba5b97c3308" +
	"21b5c222e5a6aaaaac4b24e355773a32b7980108746189b4940a87915f09d54f8c0f48d03b8bcaf9e4522af6c4f44896" +
	"0d18762200de9c3a7d600bfb34b28bc693cf74e98e3b95a7c697e3c174514c52b569230966d054148fee"

// FuzzStateFile: on any file bytes, StateFile.Load succeeds or fails with
// ErrStateCorrupt, ErrStateAuth or ErrStateVersion. It never panics, hands
// derive exactly the extra bytes, and allocates a small multiple of the
// input. Seeded with a real secure-cache file of the StateFile layout
// (which fails authentication under the fuzz keys, after every structural
// check) and with a file sealed under them (which loads).
func FuzzStateFile(f *testing.F) {
	real, err := hex.DecodeString(v1CacheHex)
	if err != nil {
		f.Fatal(err)
	}
	fs := vfs.NewMem()
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
