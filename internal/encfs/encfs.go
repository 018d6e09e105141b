// Package encfs implements the paper's instance-level encryption design
// (Section 4): a transparent encrypting filesystem that intercepts all file
// I/O of the LSM-KVS and encrypts every byte with a single instance-wide DEK
// before it reaches the underlying filesystem.
//
// The LSM core stays unchanged and unaware — encfs.FS satisfies vfs.FS, so
// it drops in wherever the plain filesystem would. Each file begins with a
// small plaintext header (magic, version, random IV); the body is encrypted
// under the instance DEK in the format the version names: per-block AES-GCM
// (v2, authenticated) for write-once files, AES-128-CTR (v1) for the
// append-many WAL and MANIFEST streams.
//
// Trade-offs (Section 4.2): one DEK for everything means no per-file blast-
// radius limits and no cheap rotation — rotating requires re-encrypting the
// entire store. SHIELD (internal/core) addresses those for DS deployments.
package encfs

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"shield/internal/crypt"
	"shield/internal/vfs"
)

// headerMagic identifies EncFS files.
const headerMagic = 0x454e4346 // "ENCF"

// Header versions. v1 bodies are AES-128-CTR under the 16-byte IV
// (confidentiality only); v2 bodies are per-block AES-GCM (format v2,
// crypt/seal.go) where the first 8 IV bytes are the GCM nonce prefix and
// the whole header is bound into every block as AAD. The version is
// negotiated per file: readers accept both, so a store written by an older
// build keeps working and migrates file-by-file as compaction rewrites it.
const (
	headerVersion  = 1
	headerVersion2 = 2
	latestVersion  = headerVersion2
)

// HeaderLen is the plaintext header size: magic(4) + version(4) + IV(16).
const HeaderLen = 8 + crypt.IVSize

// IsEncrypted reports whether a file's raw prefix carries the EncFS header —
// used by integrity scrubs to tell "encrypted with a key we don't hold" from
// "corrupt" when reading below the decryption layer.
func IsEncrypted(prefix []byte) bool {
	return len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix[0:4]) == headerMagic
}

// FS wraps a base filesystem with transparent single-DEK encryption.
type FS struct {
	base vfs.FS
	key  crypt.DEK

	// walBufSize, when positive, applies the application-managed buffer of
	// Section 5.3 to WAL files (names ending ".log"), amortizing the
	// per-write encryption-initialization cost. 0 encrypts every write
	// individually.
	walBufSize int
}

// New returns an encrypting FS over base using the instance DEK key. The DEK
// is supplied at startup (e.g. by an operator or a KDS) and held only in
// memory for the lifetime of the instance. A positive walBufSize enables the
// WAL-buffer optimization for log files (the "EncFS + WAL-Buf" variant of
// the paper's evaluation).
func New(base vfs.FS, key crypt.DEK, walBufSize int) *FS {
	return &FS{base: base, key: key, walBufSize: walBufSize}
}

// streamFile reports whether name is an append-many stream that must stay
// on format v1: sealed files are finalized by their first Sync, which is
// incompatible with the WAL's and MANIFEST's append-sync-append lifecycle.
// (Their records carry CRCs inside the ciphertext; the residual malleability
// window is documented in DESIGN.md §13.)
func streamFile(name string) bool {
	return strings.HasSuffix(name, ".log") || strings.Contains(name, "MANIFEST")
}

// Create implements vfs.FS. It writes the plaintext header, then returns a
// handle that encrypts everything appended after it.
func (e *FS) Create(name string) (vfs.WritableFile, error) {
	f, err := e.base.Create(name)
	if err != nil {
		return nil, err
	}
	iv, err := crypt.NewIV()
	if err != nil {
		f.Close()
		return nil, err
	}
	version := uint32(latestVersion)
	if streamFile(name) {
		version = headerVersion
	}
	var hdr [HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], headerMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	copy(hdr[8:], iv[:])
	if err := vfs.WriteFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("encfs: writing header: %w", err)
	}
	if version == headerVersion2 {
		sealer, err := crypt.NewSealer(e.key, iv[:crypt.SealedNoncePrefixLen], hdr[:])
		if err != nil {
			f.Close()
			return nil, err
		}
		// Default chunk size, sealed inline: EncFS sits below the engine and
		// has no compaction-thread setting to honour.
		return crypt.NewSealedWriter(f, sealer, 0, 0), nil
	}
	bufSize := 0
	if e.walBufSize > 0 && strings.HasSuffix(name, ".log") {
		bufSize = e.walBufSize
	}
	return crypt.NewBufferedWriter(f, e.key, iv, bufSize), nil
}

// readHeader parses and validates an EncFS header from f, returning the
// raw header bytes (the v2 AAD), the IV, and the format version.
func readHeader(f vfs.RandomAccessFile) ([HeaderLen]byte, [crypt.IVSize]byte, uint32, error) {
	var iv [crypt.IVSize]byte
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, HeaderLen), hdr[:]); err != nil {
		return hdr, iv, 0, fmt.Errorf("encfs: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != headerMagic {
		return hdr, iv, 0, fmt.Errorf("encfs: bad magic (file not encrypted by encfs?)")
	}
	v := binary.LittleEndian.Uint32(hdr[4:8])
	if v != headerVersion && v != headerVersion2 {
		return hdr, iv, 0, fmt.Errorf("encfs: unsupported header version %d", v)
	}
	copy(iv[:], hdr[8:])
	return hdr, iv, v, nil
}

// Open implements vfs.FS, returning a handle that decrypts positional reads
// (and, for format v2, authenticates every block it returns).
func (e *FS) Open(name string) (vfs.RandomAccessFile, error) {
	f, err := e.base.Open(name)
	if err != nil {
		return nil, err
	}
	hdr, iv, version, err := readHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	var r vfs.RandomAccessFile
	if version == headerVersion2 {
		sealer, serr := crypt.NewSealer(e.key, iv[:crypt.SealedNoncePrefixLen], hdr[:])
		if serr == nil {
			r, serr = crypt.NewSealedReaderAt(f, sealer, HeaderLen)
		}
		err = serr
	} else {
		//shield:noauthread format v1 has no tags to verify: every WAL/MANIFEST stream is v1 by design (record CRCs sit inside the ciphertext, DESIGN.md §13), as are files from builds that predate sealing
		r, err = crypt.NewDecryptingReaderAt(f, e.key, iv, HeaderLen)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// OpenSequential implements vfs.FS for streaming (WAL/MANIFEST recovery).
func (e *FS) OpenSequential(name string) (vfs.SequentialFile, error) {
	// Sequential decryption is implemented over the positional reader; WAL
	// recovery is rare enough that the simplicity wins.
	r, err := e.Open(name)
	if err != nil {
		return nil, err
	}
	return &sectionSequential{r: r}, nil
}

type sectionSequential struct {
	r   vfs.RandomAccessFile
	off int64
}

func (s *sectionSequential) Read(p []byte) (int, error) {
	n, err := s.r.ReadAt(p, s.off)
	s.off += int64(n)
	if n > 0 && err == io.EOF {
		return n, nil
	}
	return n, err
}

func (s *sectionSequential) Close() error { return s.r.Close() }

// Remove implements vfs.FS.
func (e *FS) Remove(name string) error { return e.base.Remove(name) }

// Rename implements vfs.FS.
func (e *FS) Rename(oldname, newname string) error { return e.base.Rename(oldname, newname) }

// List implements vfs.FS. Sizes reported include the EncFS header; the
// engine treats sizes as opaque hints, so this is acceptable.
func (e *FS) List(dir string) ([]vfs.FileInfo, error) { return e.base.List(dir) }

// MkdirAll implements vfs.FS.
func (e *FS) MkdirAll(dir string) error { return e.base.MkdirAll(dir) }

// SyncDir implements vfs.FS. Directory entries are not encrypted, so this is
// a straight passthrough.
func (e *FS) SyncDir(dir string) error { return e.base.SyncDir(dir) }

// Stat implements vfs.FS.
func (e *FS) Stat(name string) (vfs.FileInfo, error) { return e.base.Stat(name) }
