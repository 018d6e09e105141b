package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"shield/internal/lsm"
)

// legacyHeader encodes the 24-byte EncFS header older builds wrote.
func legacyHeader(version uint32, iv [16]byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, legacyMagic)
	out = binary.LittleEndian.AppendUint32(out, version)
	return append(out, iv[:]...)
}

// FuzzParseHeader: the plaintext file header is parsed from bytes the
// storage side controls, before any AEAD check can run (its DEK-ID picks the
// key). On any input parseHeader returns a corruption-class error or a
// header that re-encodes to exactly the prefix it claims — in the current
// format, or in the legacy EncFS one it was read from; it never panics and
// never reports a length past its input.
func FuzzParseHeader(f *testing.F) {
	iv := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	f.Add(encodeHeader("dek-abc123", iv, shieldVersion))
	f.Add(append(encodeHeader("dek-abc123", iv, shieldVersion2), "body"...))
	f.Add(encodeHeader("", iv, shieldVersion2))
	f.Add(encodeHeader("dek-x", iv, shieldVersion)[:12])
	f.Add([]byte("SHLD"))
	f.Add([]byte{})
	f.Add(legacyHeader(shieldVersion, iv))
	f.Add(append(legacyHeader(shieldVersion2, iv), "body"...))
	f.Add(legacyHeader(shieldVersion2, iv)[:17])
	f.Add(legacyHeader(3, iv))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseHeader(data)
		if err != nil {
			if !errors.Is(err, lsm.ErrCorruption) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if h.len > len(data) {
			t.Fatalf("header length %d past the %d-byte input", h.len, len(data))
		}
		want := encodeHeader(h.dekID, h.iv, h.version)
		if h.legacy {
			if h.dekID != "" {
				t.Fatalf("legacy header parsed with DEK-ID %q", h.dekID)
			}
			want = legacyHeader(h.version, h.iv)
		}
		if !bytes.Equal(want, data[:h.len]) {
			t.Fatalf("re-encoded %x, parsed from %x", want, data[:h.len])
		}
	})
}
