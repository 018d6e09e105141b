package core

import (
	"bytes"
	"errors"
	"testing"

	"shield/internal/lsm"
)

// FuzzParseHeader: the plaintext SHIELD header is parsed from bytes the
// storage side controls, before any AEAD check can run (its DEK-ID picks the
// key). On any input parseHeader returns a corruption-class error or a
// header that re-encodes to exactly the prefix it claims; it never panics
// and never reports a length past its input.
func FuzzParseHeader(f *testing.F) {
	iv := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	f.Add(encodeHeader("dek-abc123", iv, shieldVersion))
	f.Add(append(encodeHeader("dek-abc123", iv, shieldVersion2), "body"...))
	f.Add(encodeHeader("", iv, shieldVersion2))
	f.Add(encodeHeader("dek-x", iv, shieldVersion)[:12])
	f.Add([]byte("SHLD"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, iv, version, n, err := parseHeader(data)
		if err != nil {
			if !errors.Is(err, lsm.ErrCorruption) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("header length %d past the %d-byte input", n, len(data))
		}
		if got := encodeHeader(id, iv, version); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encoded %x, parsed from %x", got, data[:n])
		}
	})
}
