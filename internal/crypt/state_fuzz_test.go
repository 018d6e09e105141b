package crypt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"
)

// cacheSaltLen is the extra-bytes length of a secure DEK cache file: its
// PBKDF2 salt.
const cacheSaltLen = 16

// v1CacheHex is a secure DEK cache file as builds before the record log
// wrote it: a sealed state file with a 16-byte salt (two DEKs and one epoch
// floor, passkey "fixture-passkey"; the same bytes as seccache's parent
// fixture).
const v1CacheHex = "" +
	"48434353010000001a314a67594cf2daf5cd01e7f35db0fcf5b70c7eeeb79c663f58045e9b2725e06e000000601a6ddb" +
	"9f3989233d437bf55993b4ffa22c3c89f8d1f79c9e3fe04f9c53c8287f581db125ae27147b99b85d93532ba5b97c3308" +
	"21b5c222e5a6aaaaac4b24e355773a32b7980108746189b4940a87915f09d54f8c0f48d03b8bcaf9e4522af6c4f44896" +
	"0d18762200de9c3a7d600bfb34b28bc693cf74e98e3b95a7c697e3c174514c52b569230966d054148fee"

// v1KDSHex is a KDS key table as builds before the record log wrote it: a
// sealed state file with no extra bytes (master key "fixture-master-key";
// the same bytes as kds's parent fixture).
const v1KDSHex = "" +
	"5053444b01000000af4bc583faa7c89fb0bd21dcc0f753684e010000e0da0597a7d1bb427ef1b21237076cae0a7321ed" +
	"db4f009a77dbae0835d299568b059cbbac6e12bb151294159be87c2937d9dfee5586a100d394123fb4be678f714a0b6a" +
	"c8a7c3a81882e95b08f58de7aa196f6c29985609e2d9b5cf4e31d9c446dcdd6bb065a46e2a7032d7eca9c1811988fb41" +
	"973e57ca22e230ad3b96e11e2520c0169a605dd83eed970a3da3b0219fca024ee4bc8794dbb37f17dd4b831927924710" +
	"a6282b8b6e2be012bc2604254439eee6e8973f036618d9a976c430e01b9cba381d01eeaebd22557b19df30132ab0a6a0" +
	"0079bb82094a0d0a814f1545e4e358adf7a028c800729deddd92f5c3ae7358b471775d90416f2e0b7f2749930365e2bc" +
	"e28e2cea9df91e1be7a640fc30fee8bf5d0a82eb435190a7881c9b3457191d643f14f3f6037b5f667a30779ead372a3c" +
	"91f63a043969adc9527f86f975b063b666a66192d07e13cf7db6f691455daef6155492a9ecbade9b3f30e43b832fb776" +
	"9057b670ea08a015b0ed"

// FuzzStateFile: on any file bytes, DecodeStateFile, reading them as a
// secure-cache file and as a KDS key table, succeeds or fails with
// ErrStateCorrupt, ErrStateAuth or ErrStateVersion. It never panics, hands
// the key function exactly the extra bytes, and allocates a small multiple
// of the input. Seeded with a real file of each kind (which fail
// authentication under the fuzz keys, after every structural check) and
// with a file sealed under them (which decodes).
func FuzzStateFile(f *testing.F) {
	realCache, err := hex.DecodeString(v1CacheHex)
	if err != nil {
		f.Fatal(err)
	}
	realKDS, err := hex.DecodeString(v1KDSHex)
	if err != nil {
		f.Fatal(err)
	}
	cacheMagic, kdsMagic := binary.LittleEndian.Uint32(realCache), binary.LittleEndian.Uint32(realKDS)
	sealed := sealStateFile(cacheMagic, bytes.Repeat([]byte{5}, cacheSaltLen), testStateAES, testStateMAC, []byte(`{"dek-1":"secret"}`))
	var seen []byte
	if _, err := DecodeStateFile(sealed, cacheMagic, cacheSaltLen, testStateKeys(&seen)); err != nil {
		f.Fatalf("sealed seed: %v", err)
	}
	if _, err := DecodeStateFile(realCache, cacheMagic, cacheSaltLen, testStateKeys(&seen)); !errors.Is(err, ErrStateAuth) {
		f.Fatalf("secure-cache seed: %v, want ErrStateAuth", err)
	}
	if _, err := DecodeStateFile(realKDS, kdsMagic, 0, testStateKeys(&seen)); !errors.Is(err, ErrStateAuth) {
		f.Fatalf("KDS seed: %v, want ErrStateAuth", err)
	}
	f.Add(realCache)
	f.Add(sealed)
	f.Add(realCache[:40])
	f.Add([]byte{})
	f.Add(realKDS)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []struct {
			magic    uint32
			extraLen int
		}{{cacheMagic, cacheSaltLen}, {kdsMagic, 0}} {
			var (
				plain  []byte
				err    error
				before runtime.MemStats
				after  runtime.MemStats
			)
			runtime.ReadMemStats(&before)
			plain, err = DecodeStateFile(data, kind.magic, kind.extraLen, func(extra []byte) (DEK, []byte) {
				if len(extra) != kind.extraLen || !bytes.Equal(extra, data[8:8+kind.extraLen]) {
					t.Fatalf("key function got %d extra bytes %x", len(extra), extra)
				}
				return testStateAES, append([]byte(nil), testStateMAC...)
			})
			runtime.ReadMemStats(&after)
			if n, budget := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data))+16<<10; n > budget {
				t.Fatalf("%d bytes allocated for %d of input", n, len(data))
			}
			if err != nil {
				if !errors.Is(err, ErrStateCorrupt) && !errors.Is(err, ErrStateAuth) && !errors.Is(err, ErrStateVersion) {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			if want := len(data) - (8 + kind.extraLen + IVSize + 4 + stateTagLen); len(plain) != want {
				t.Fatalf("decoded %d payload bytes from a %d-byte file, want %d", len(plain), len(data), want)
			}
		}
	})
}
