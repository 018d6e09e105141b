package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"shield/internal/kds"
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
// key). Every input is tried as given and under the EncFS magic of older
// builds. On any of them parseHeader returns a corruption-class error or a
// header that re-encodes to exactly the prefix it claims, and never reports
// a length past its input. The serving path refuses every EncFS prefix, and
// a v1 or v2 table header, with lsm.ErrNeedsMigrate, which is no corruption
// class. The migrate parser
// decodes the same inputs: as parseHeader does a SHLD one, and an EncFS one
// into a header that re-encodes to its legacy prefix. Nothing panics.
func FuzzParseHeader(f *testing.F) {
	iv := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	f.Add(encodeHeader("dek-abc123", iv, shieldVersion))
	f.Add(append(encodeHeader("dek-abc123", iv, shieldVersion2), "body"...))
	f.Add(encodeHeader("", iv, shieldVersion2))
	f.Add(encodeHeader("dek-x", iv, shieldVersion)[:12])
	f.Add([]byte("SHLD"))
	f.Add([]byte{})
	f.Add(append(encodeHeader("dek-abc123", iv, shieldVersion3), "body"...))
	f.Add(encodeHeader("", iv, shieldVersion3))
	f.Add(encodeHeader("dek-abc123", iv, 4))
	f.Add(encodeHeader(kds.KeyID(bytes.Repeat([]byte("d"), 300)), iv, shieldVersion2))
	f.Add(encodeHeader("dek-abc123", iv, shieldVersion2)[:20])
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		legacy := binary.LittleEndian.AppendUint32(nil, legacyMagic)
		if len(data) > 4 {
			legacy = append(legacy, data[4:]...)
		}
		for _, in := range [][]byte{data, legacy} {
			checkHeaderParsers(t, in)
		}
	})
}

// checkHeaderParsers holds the serving and the migrate header parsers to
// FuzzParseHeader's contract on one input.
func checkHeaderParsers(t *testing.T, in []byte) {
	h, err := parseHeader(in)
	if err != nil && !errors.Is(err, lsm.ErrCorruption) {
		t.Fatalf("untyped error %v", err)
	}
	if err == nil {
		if h.len > len(in) {
			t.Fatalf("header length %d past the %d-byte input", h.len, len(in))
		}
		if want := encodeHeader(h.dekID, h.iv, h.version); !bytes.Equal(want, in[:h.len]) {
			t.Fatalf("re-encoded %x, parsed from %x", want, in[:h.len])
		}
	}

	for _, kind := range []lsm.FileKind{lsm.FileKindWAL, lsm.FileKindSST} {
		_, serr := servingHeader("f", kind, in)
		switch {
		case isLegacyHeader(in) || err == nil && kind == lsm.FileKindSST && h.version != shieldVersion3:
			if !errors.Is(serr, lsm.ErrNeedsMigrate) || errors.Is(serr, lsm.ErrCorruption) {
				t.Fatalf("serving parser on older %s header %x: %v, want only ErrNeedsMigrate", kind, in, serr)
			}
		case (serr == nil) != (err == nil) || errors.Is(serr, lsm.ErrNeedsMigrate):
			t.Fatalf("serving parser on %s header %x: %v, parseHeader: %v", kind, in, serr, err)
		}
	}

	mh, encfs, merr := parseMigrateHeader(in)
	switch {
	case merr != nil && !errors.Is(merr, lsm.ErrCorruption):
		t.Fatalf("migrate parser: untyped error %v", merr)
	case !encfs && (mh != h || (merr == nil) != (err == nil)):
		t.Fatalf("migrate parser on SHLD input %x: %+v, %v; parseHeader: %+v, %v", in, mh, merr, h, err)
	case encfs && merr == nil && (mh.dekID != "" || !bytes.Equal(legacyHeader(mh.version, mh.iv), in[:mh.len])):
		t.Fatalf("migrate parser on EncFS input %x: %+v", in, mh)
	}
}
