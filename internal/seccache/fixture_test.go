package seccache

import (
	"encoding/binary"
	"encoding/hex"
	"testing"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/vfs"
)

// parentCacheHex is a cache file written by the build before the sealed-state
// codec was shared with the KDS (passkey "fixture-passkey"; two DEKs and one
// epoch floor), in the v1 layout (crypt.StateFile) that preceded the record
// log: it must keep opening, and Open migrates it to the log.
const parentCacheHex = "" +
	"48434353010000001a314a67594cf2daf5cd01e7f35db0fcf5b70c7eeeb79c663f58045e9b2725e06e000000601a6ddb" +
	"9f3989233d437bf55993b4ffa22c3c89f8d1f79c9e3fe04f9c53c8287f581db125ae27147b99b85d93532ba5b97c3308" +
	"21b5c222e5a6aaaaac4b24e355773a32b7980108746189b4940a87915f09d54f8c0f48d03b8bcaf9e4522af6c4f44896" +
	"0d18762200de9c3a7d600bfb34b28bc693cf74e98e3b95a7c697e3c174514c52b569230966d054148fee"

func TestOpensParentWrittenCache(t *testing.T) {
	data, err := hex.DecodeString(parentCacheHex)
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMem()
	if err := vfs.WriteFile(fs, "cache.bin", data); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, "cache.bin", []byte("another passkey")); err != ErrBadPasskey {
		t.Fatalf("wrong passkey on the v1 file: %v", err)
	}
	c, err := Open(fs, "cache.bin", []byte("fixture-passkey"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Recovered() || c.Len() != 2 {
		t.Fatalf("recovered=%v len=%d, want a loaded cache of 2", c.Recovered(), c.Len())
	}
	for id, want := range map[string]crypt.DEK{
		"dek-alpha": {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		"dek-beta":  {0xf0, 0xe1, 0xd2, 0xc3, 0xb4, 0xa5, 0x96, 0x87, 0x78, 0x69, 0x5a, 0x4b, 0x3c, 0x2d, 0x1e, 0x0f},
	} {
		if got, err := c.Get(kds.KeyID(id)); err != nil || got != want {
			t.Fatalf("%s = %x, %v", id, got, err)
		}
	}
	if e, ok := c.EpochFloor("db"); !ok || e != 7 {
		t.Fatalf("epoch floor = %d, %v", e, ok)
	}
	// A wrong passkey fails closed on the migrated file as it did on the v1
	// one.
	if _, err := Open(fs, "cache.bin", []byte("another passkey")); err != ErrBadPasskey {
		t.Fatalf("wrong passkey: %v", err)
	}

	// Open rewrote the file as a record log under the fixture's salt, and
	// the log reopens to the same DEKs and floor.
	logged, err := vfs.ReadFile(fs, "cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	if m := binary.LittleEndian.Uint32(logged); m != logMagic {
		t.Fatalf("file magic %#x after opening the v1 fixture, want the log's %#x", m, logMagic)
	}
	if string(logged[8:8+saltSize]) != string(data[8:8+saltSize]) {
		t.Fatalf("salt %x after migration, the fixture's %x", logged[8:8+saltSize], data[8:8+saltSize])
	}
	c2, err := Open(fs, "cache.bin", []byte("fixture-passkey"))
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := c2.EpochFloor("db"); c2.Recovered() || c2.Len() != 2 || !ok || e != 7 {
		t.Fatalf("reopened migrated cache: recovered=%v len=%d floor=%d,%v", c2.Recovered(), c2.Len(), e, ok)
	}
	if got, err := c2.Get("dek-alpha"); err != nil || got != (crypt.DEK{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}) {
		t.Fatalf("dek-alpha after migration = %x, %v", got, err)
	}
}
