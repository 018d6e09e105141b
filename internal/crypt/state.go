package crypt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"shield/internal/vfs"
)

// StateFile keeps a small secret (the secure DEK cache, the KDS key table)
// in one file, sealed and replaced atomically. On-disk layout, integers
// little-endian:
//
//	magic(4) version(4) extra iv(16) len(4) ciphertext hmac(32)
//
// The payload is AES-128-CTR encrypted under AES, and an HMAC-SHA256 tag
// under HMAC over everything before it provides tamper evidence. extra is
// whatever a reader needs before it can derive the keys (the cache's
// PBKDF2 salt; the KDS has none); its length is fixed per Magic.
type StateFile struct {
	FS    vfs.FS
	Path  string
	Magic uint32
	Extra []byte
	AES   DEK
	HMAC  []byte

	saveMu sync.Mutex // one Save at a time; never held by a reader
}

const (
	stateVersion = 1
	stateTagLen  = 32
)

var (
	// ErrStateCorrupt marks damage that is provably file corruption
	// (truncation, bad magic, inconsistent lengths) rather than a possible
	// key mismatch.
	ErrStateCorrupt = errors.New("crypt: structurally corrupt state file")

	// ErrStateAuth reports a state file whose tag does not verify: the wrong
	// key and tampering are indistinguishable.
	ErrStateAuth = errors.New("crypt: state file does not authenticate")

	// ErrStateVersion reports a state file of a layout version this build
	// does not know.
	ErrStateVersion = errors.New("crypt: unsupported state file version")
)

// Load reads and unseals the file, first sweeping the temp a crashed Save
// left. derive, when non-nil, is called with the header's extraLen extra
// bytes once the structure has checked out and must set the keys. The caller
// wipes the returned payload. With no file the error is vfs.ErrNotFound.
func (f *StateFile) Load(extraLen int, derive func(extra []byte)) ([]byte, error) {
	data, err := vfs.ReadReplaced(f.FS, f.Path)
	if err != nil {
		return nil, err
	}
	ivOff := 8 + extraLen
	hdrLen := ivOff + IVSize + 4
	if len(data) < hdrLen+stateTagLen {
		return nil, fmt.Errorf("%w: truncated", ErrStateCorrupt)
	}
	if binary.LittleEndian.Uint32(data[0:4]) != f.Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrStateCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != stateVersion {
		return nil, fmt.Errorf("%w %d", ErrStateVersion, v)
	}
	end := len(data) - stateTagLen
	if n := binary.LittleEndian.Uint32(data[hdrLen-4 : hdrLen]); int64(n) != int64(end-hdrLen) {
		return nil, fmt.Errorf("%w: length mismatch", ErrStateCorrupt)
	}
	f.Extra = append([]byte(nil), data[8:ivOff]...)
	if derive != nil {
		derive(f.Extra)
	}
	if !VerifyHMACSHA256(f.HMAC, data[:end], data[end:]) {
		return nil, ErrStateAuth
	}
	var iv [IVSize]byte
	copy(iv[:], data[ivOff:])
	plain := make([]byte, end-hdrLen)
	if err := EncryptAt(f.AES, iv, plain, data[hdrLen:end], 0); err != nil {
		return nil, err
	}
	return plain, nil
}

// Save seals what snapshot returns and atomically replaces the file with it.
// Saves run one at a time and snapshot runs inside its save's turn, so files
// reach the disk in the order of the states they captured: an older state
// never lands over a newer one. The snapshot is wiped once it is sealed.
func (f *StateFile) Save(snapshot func() ([]byte, error)) error {
	f.saveMu.Lock()
	defer f.saveMu.Unlock()
	plain, err := snapshot()
	if err != nil {
		return err
	}
	defer Zeroize(plain)
	iv, err := NewIV()
	if err != nil {
		return err
	}
	out := make([]byte, 8, 8+len(f.Extra)+IVSize+4+len(plain)+stateTagLen)
	binary.LittleEndian.PutUint32(out[0:4], f.Magic)
	binary.LittleEndian.PutUint32(out[4:8], stateVersion)
	out = append(out, f.Extra...)
	out = append(out, iv[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(plain)))
	hdrLen := len(out)
	out = out[:hdrLen+len(plain)]
	if err := EncryptAt(f.AES, iv, out[hdrLen:], plain, 0); err != nil {
		return err
	}
	out = append(out, HMACSHA256(f.HMAC, out)...)
	return vfs.ReplaceFile(f.FS, f.Path, out)
}
