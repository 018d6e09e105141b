package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/metrics"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

// ErrDegraded marks an operation refused because the KDS is unreachable and
// the needed DEK is not available locally. Writes need a fresh DEK, so they
// fail fast with this error rather than hanging; reads degrade only when the
// DEK is in neither the in-memory map nor the secure cache. Callers match it
// with errors.Is and typically surface "read-only / retry later" upstream.
var ErrDegraded = errors.New("core: degraded: KDS unavailable")

// kdsUnavailable distinguishes "the service cannot be reached" (every
// replica down or unresponsive — a transient infrastructure fault worth
// degrading over) from policy denials like ErrUnauthorized or
// ErrAlreadyIssued, which are authoritative answers and must surface as-is.
func kdsUnavailable(err error) bool {
	return errors.Is(err, kds.ErrNoReplica)
}

// File header (plaintext, precedes the encrypted body):
//
//	magic "SHLD"(4) version(4) dekIDLen(2) dekID iv(16)
//
// The DEK-ID is deliberately in the clear — it is the metadata-enabled
// sharing hook of Section 5.4. Possession of a DEK-ID is useless without
// KDS authorization, and one-time provisioning blocks replay of leaked IDs.
// An empty DEK-ID names the instance key (ModeEncFS).
//
// version selects the body format: 1 is AES-128-CTR under the 16-byte IV
// (confidentiality only); 3 is a run of AES-GCM records, one per write
// (crypt/seal.go), with the first 8 IV bytes as the nonce prefix and the
// full header as AAD — so a header cannot be transplanted onto another body.
// SSTs and CURRENT (when sealed) are write-once and are written as v3, WAL
// and MANIFEST streams as v1 (sealing finalizes on first Sync, which
// append-many files cannot satisfy). The serving path reads exactly that: a
// positional read (SST, CURRENT) accepts only a v3 body, a streaming read
// (WAL, MANIFEST) only a v1 one. Anything an older build wrote — the EncFS
// header, a v1 or v2 (per-4-KiB-block GCM) SST or CURRENT body — is refused
// with lsm.ErrNeedsMigrate; only Migrate (migrate.go) reads those.
const (
	shieldMagic    = 0x53484c44 // "SHLD"
	shieldVersion  = 1
	shieldVersion2 = 2
	shieldVersion3 = 3
)

// errBadHeader wraps lsm.ErrCorruption: a malformed file header is
// structural file damage (unlike an unresolvable DEK, which may just mean
// the KDS is unreachable and must never classify as corruption).
var errBadHeader = fmt.Errorf("core: bad file header: %w", lsm.ErrCorruption)

func encodeHeader(dekID kds.KeyID, iv [crypt.IVSize]byte, version uint32) []byte {
	out := make([]byte, 0, 10+len(dekID)+crypt.IVSize)
	var tmp [10]byte
	binary.LittleEndian.PutUint32(tmp[0:4], shieldMagic)
	binary.LittleEndian.PutUint32(tmp[4:8], version)
	binary.LittleEndian.PutUint16(tmp[8:10], uint16(len(dekID)))
	out = append(out, tmp[:]...)
	out = append(out, dekID...)
	out = append(out, iv[:]...)
	return out
}

// fileHeader is a parsed file header.
type fileHeader struct {
	dekID   kds.KeyID // "" for the instance key
	iv      [crypt.IVSize]byte
	version uint32 // shieldVersion (CTR), shieldVersion2 or shieldVersion3 (sealed)
	len     int    // header bytes; all of them are a sealed body's AAD
}

// headerLen returns the length of the header that starts with prefix, which
// must hold at least its first 10 bytes. Under the EncFS magic it is just
// the prefix's (parseHeader refuses that magic; migrate.go reads it); under
// any other it is read as a SHLD header's, so a WAL whose header was torn
// into a zero-filled region reads short and replays as an empty log.
func headerLen(prefix []byte) int {
	if isLegacyHeader(prefix) {
		return len(prefix)
	}
	return 10 + int(binary.LittleEndian.Uint16(prefix[8:10])) + crypt.IVSize
}

// parseHeader decodes the SHLD header at the start of buf.
func parseHeader(buf []byte) (fileHeader, error) {
	var h fileHeader
	if len(buf) < 10 {
		return h, errBadHeader
	}
	if !IsShieldHeader(buf) {
		return h, fmt.Errorf("%w: bad magic", errBadHeader)
	}
	h.version = binary.LittleEndian.Uint32(buf[4:8])
	if h.version < shieldVersion || h.version > shieldVersion3 {
		return h, fmt.Errorf("%w: unsupported version %d", errBadHeader, h.version)
	}
	h.len = headerLen(buf)
	if len(buf) < h.len {
		return h, fmt.Errorf("%w: truncated", errBadHeader)
	}
	h.dekID = kds.KeyID(buf[10 : h.len-crypt.IVSize])
	copy(h.iv[:], buf[h.len-crypt.IVSize:h.len])
	return h, nil
}

// servingHeader parses the header of file name, of kind, as the serving
// path reads it: SHLD, over a v3 body for the positional kinds (SST,
// CURRENT). An older generation — the EncFS header, a v1 or v2 SST or
// CURRENT body — is refused with lsm.ErrNeedsMigrate, in a fresh error that
// wraps no corruption class, so no recovery or scrub drops, quarantines or
// skips the file.
func servingHeader(name string, kind lsm.FileKind, buf []byte) (fileHeader, error) {
	h, err := parseHeader(buf)
	var what string
	switch {
	case err != nil && isLegacyHeader(buf):
		what = "EncFS header"
	case err != nil:
		return h, fmt.Errorf("core: %s: %w", name, err)
	case h.version != shieldVersion3 && (kind == lsm.FileKindSST || kind == lsm.FileKindCurrent):
		what = fmt.Sprintf("v%d %s body", h.version, kind)
	default:
		return h, nil
	}
	return h, fmt.Errorf("core: %s: %s: %w", name, what, lsm.ErrNeedsMigrate)
}

// DEKIDFromHeader extracts the plaintext DEK-ID from the head of an
// encrypted file's raw bytes — the read any server performs before asking
// the KDS for the key (metadata-enabled DEK sharing). An empty ID means the
// instance key. ok is false for anything but a SHLD header, including the
// EncFS one of older builds (EncryptedSniffer still recognizes that).
func DEKIDFromHeader(data []byte) (string, bool) {
	h, err := parseHeader(data)
	if err != nil {
		return "", false
	}
	return string(h.dekID), true
}

// shieldWrapper implements lsm.FileWrapper: the one encrypting layer of
// both designs. They differ only in the key policy. Per-file (ModeSHIELD):
// every new file gets a fresh DEK from the KDS, named in its header.
// Instance (ModeEncFS): every file is under cfg.InstanceDEK, its header names
// no DEK, and there is no KDS, secure cache or key lifecycle.
type shieldWrapper struct {
	cfg      Config
	instance bool

	// deks mirrors the DEKs of live files in memory (the paper keeps the
	// DEK "in memory as part of the LSM-KVS metadata while the instance is
	// running"); the secure cache persists them across restarts. names
	// remembers the DEK of every file this wrapper created or opened, so
	// deletion notifications without an explicit DEK-ID (WALs, MANIFESTs,
	// orphan SSTs) still prune the right key.
	mu    sync.Mutex
	deks  map[kds.KeyID]crypt.DEK
	names map[string]kds.KeyID

	// Stats.
	created    int64
	kdsFetches int64
	cacheHits  int64
	memoryHits int64
}

func newShieldWrapper(cfg Config) *shieldWrapper {
	return &shieldWrapper{
		cfg:      cfg,
		instance: cfg.Mode == ModeEncFS,
		deks:     make(map[kds.KeyID]crypt.DEK),
		names:    make(map[string]kds.KeyID),
	}
}

// WrapperStats reports DEK-resolution counters for a SHIELD wrapper.
type WrapperStats struct {
	DEKsCreated int64
	KDSFetches  int64
	CacheHits   int64
	MemoryHits  int64
}

// Stats extracts counters from a wrapper produced by BuildWrapper; ok is
// false for the plain (ModeNone) wrapper. Under ModeEncFS they stay zero.
//
//shield:notestonly the wrapper tests assert on the DEK-resolution counters it reports
func Stats(w lsm.FileWrapper) (WrapperStats, bool) {
	sw, ok := w.(*shieldWrapper)
	if !ok {
		return WrapperStats{}, false
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return WrapperStats{
		DEKsCreated: sw.created,
		KDSFetches:  sw.kdsFetches,
		CacheHits:   sw.cacheHits,
		MemoryHits:  sw.memoryHits,
	}, true
}

// sstChunkSize is about how many bytes of whole sealed records (one per SST
// block) a flush or compaction hands the sealing goroutines at a time. The
// AEAD is built once per file, so it sets only the unit of dispatch and of
// file writes; the bytes on disk do not depend on it.
const sstChunkSize = 64 << 10

// seals reports whether files of kind are encrypted. CURRENT is sealed only
// under the instance policy: per-file SHIELD leaves it readable to keyless
// tools (it names a file and the freshness epoch, no user data).
func (s *shieldWrapper) seals(kind lsm.FileKind) bool {
	switch kind {
	case lsm.FileKindCurrent:
		return s.instance
	case lsm.FileKindOther:
		return false
	}
	return true
}

// WrapCreate implements lsm.FileWrapper. Every new WAL/SST/MANIFEST (and,
// under the instance policy, CURRENT) gets a fresh IV; under the per-file
// policy also a fresh DEK.
func (s *shieldWrapper) WrapCreate(name string, kind lsm.FileKind, f vfs.WritableFile) (_ vfs.WritableFile, _ string, err error) {
	if !s.seals(kind) {
		return f, "", nil
	}
	id, dek := kds.KeyID(""), s.cfg.InstanceDEK
	if !s.instance {
		if id, dek, err = s.newDEK(name); err != nil {
			return nil, "", err
		}
		// A failure from here on must undo that registration itself: the
		// caller never learns the DEK-ID, so its cleanup has nothing to hand
		// FileDeleted.
		defer func() {
			if err != nil {
				s.FileDeleted(name, string(id))
				s.mu.Lock()
				s.created--
				s.mu.Unlock()
			}
		}()
	}
	iv, err := crypt.NewIV()
	if err != nil {
		return nil, "", err
	}
	// SSTs and CURRENT are write-once and get the authenticated v3 format;
	// WAL and MANIFEST are append-many streams and stay on v1 CTR (their
	// records carry CRCs inside the ciphertext; see DESIGN.md §13).
	version := uint32(shieldVersion)
	if kind == lsm.FileKindSST || kind == lsm.FileKindCurrent {
		version = shieldVersion3
	}
	hdr := encodeHeader(id, iv, version)
	if err := vfs.WriteFull(f, hdr); err != nil {
		return nil, "", fmt.Errorf("core: writing header for %s: %w", name, err)
	}

	switch kind {
	case lsm.FileKindSST, lsm.FileKindCurrent:
		sealer, err := crypt.NewSealer(dek, iv[:crypt.SealedNoncePrefixLen], hdr)
		if err != nil {
			return nil, "", err
		}
		if kind == lsm.FileKindCurrent {
			return crypt.NewSealedWriter(f, sealer, 0, 0), "", nil // a few bytes: sealed inline
		}
		return crypt.NewSealedWriter(f, sealer, sstChunkSize, s.cfg.EncryptionThreads), string(id), nil
	case lsm.FileKindWAL:
		return crypt.NewBufferedWriter(f, dek, iv, s.cfg.WALBufferSize), string(id), nil
	default: // MANIFEST: small, infrequent appends
		return crypt.NewBufferedWriter(f, dek, iv, 0), string(id), nil
	}
}

// newDEK mints a per-file DEK at the KDS for name and registers it.
func (s *shieldWrapper) newDEK(name string) (kds.KeyID, crypt.DEK, error) {
	id, dek, err := s.cfg.KDS.CreateDEK()
	if err != nil {
		if kdsUnavailable(err) {
			metrics.Net.DegradedWrites.Add(1)
			return "", crypt.DEK{}, fmt.Errorf("%w: requesting DEK for %s: %v", ErrDegraded, name, err)
		}
		return "", crypt.DEK{}, fmt.Errorf("core: requesting DEK for %s: %w", name, err)
	}
	s.mu.Lock()
	s.deks[id] = dek
	s.names[name] = id
	s.created++
	s.mu.Unlock()
	if s.cfg.Cache != nil {
		// Best effort: we hold the DEK in memory, so a cache-persistence
		// failure (storage may itself be degraded) must not fail the write
		// path.
		s.cfg.Cache.Put(id, dek) //nolint:errcheck
	}
	return id, dek, nil
}

// keyFor applies the key policy to a parsed header of file name and
// remembers the file's DEK. The instance policy reads only files under the
// instance key (an empty DEK-ID), the per-file policy only files that name
// a DEK. Anything else is a header the storage side rewrote: an integrity
// failure, like a DEK-ID the KDS disavows.
func (s *shieldWrapper) keyFor(name string, h fileHeader) (crypt.DEK, error) {
	if s.instance != (h.dekID == "") {
		return crypt.DEK{}, fmt.Errorf("core: %s: DEK-ID %q does not fit the %s key policy (header tampered?): %w", name, h.dekID, s.cfg.Mode, vfs.ErrIntegrity)
	}
	if s.instance {
		return s.cfg.InstanceDEK, nil
	}
	dek, err := s.resolveDEK(h.dekID)
	if err != nil {
		return crypt.DEK{}, err
	}
	// A recovered WAL, a replaced MANIFEST or an orphan SST that a previous
	// process created is deleted later with no DEK-ID, like the files this
	// process created: FileDeleted then finds its key here.
	s.mu.Lock()
	s.names[name] = h.dekID
	s.mu.Unlock()
	return dek, nil
}

// resolveDEK finds a DEK by ID: in-memory map, then secure cache, then KDS.
func (s *shieldWrapper) resolveDEK(id kds.KeyID) (crypt.DEK, error) {
	s.mu.Lock()
	dek, ok := s.deks[id]
	if ok {
		s.memoryHits++
		s.mu.Unlock()
		return dek, nil
	}
	s.mu.Unlock()

	if s.cfg.Cache != nil {
		if dek, err := s.cfg.Cache.Get(id); err == nil {
			s.mu.Lock()
			s.deks[id] = dek
			s.cacheHits++
			s.mu.Unlock()
			return dek, nil
		} else if !errors.Is(err, seccache.ErrNotCached) {
			return crypt.DEK{}, err
		}
	}

	dek, err := s.cfg.KDS.FetchDEK(id)
	if err != nil {
		if kdsUnavailable(err) {
			metrics.Net.DegradedReads.Add(1)
			return crypt.DEK{}, fmt.Errorf("%w: resolving DEK %s: %v", ErrDegraded, id, err)
		}
		if errors.Is(err, kds.ErrUnknownKey) {
			// Authoritative disavowal, not unavailability: the KDS durably
			// records every DEK it ever issued, so an ID it has never seen —
			// read from a plaintext header the threat model lets the storage
			// side rewrite — means the header was tampered with. Classify as
			// an integrity violation so recovery quarantines the file (bytes
			// preserved) instead of treating it as an unresolvable key.
			return crypt.DEK{}, fmt.Errorf("%w: DEK-ID %s disavowed by KDS (header tampered?): %v", vfs.ErrIntegrity, id, err)
		}
		return crypt.DEK{}, fmt.Errorf("core: resolving DEK %s: %w", id, err)
	}
	s.mu.Lock()
	s.deks[id] = dek
	s.kdsFetches++
	s.mu.Unlock()
	if s.cfg.Cache != nil {
		s.cfg.Cache.Put(id, dek) //nolint:errcheck // best effort, DEK is in memory
	}
	return dek, nil
}

// WrapOpen implements lsm.FileWrapper for positional reads (SST, CURRENT):
// only a sealed v3 body is read.
func (s *shieldWrapper) WrapOpen(name string, kind lsm.FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	if !s.seals(kind) {
		return f, nil
	}
	buf, err := readHeaderAt(f, headerLen)
	if err != nil {
		return nil, err
	}
	h, err := servingHeader(name, kind, buf)
	if err != nil {
		return nil, err
	}
	return s.openSealed(name, f, h, buf[:h.len])
}

// headerReadSize is what a positional open reads first: a header under a
// KDS-issued DEK-ID ("dek-" and 24 hex digits, 54 bytes) fits, and so do the
// instance key's and the EncFS header (26 and 24).
const headerReadSize = 64

// readHeaderAt reads the header at the start of f: headerReadSize bytes,
// then, only when size declares a longer header for what came back, the rest
// of it in a second read. A file shorter than its header yields what it
// holds, for the parser to refuse.
func readHeaderAt(f vfs.RandomAccessFile, size func(prefix []byte) int) ([]byte, error) {
	buf := make([]byte, headerReadSize)
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if n < len(buf) {
		return buf[:n], nil
	}
	want := size(buf)
	if want <= n {
		return buf, nil
	}
	long := make([]byte, want)
	copy(long, buf)
	m, err := f.ReadAt(long[n:], int64(n))
	if err != nil && err != io.EOF {
		return nil, err
	}
	return long[:n+m], nil
}

// openSealed opens the sealed (v3) body of file name, whose header h is hdr.
func (s *shieldWrapper) openSealed(name string, f vfs.RandomAccessFile, h fileHeader, hdr []byte) (vfs.RandomAccessFile, error) {
	sealer, err := s.sealerFor(name, h, hdr)
	if err != nil {
		return nil, err
	}
	r, err := crypt.NewSealedReaderAt(f, sealer, int64(h.len))
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	return r, nil
}

// sealerFor resolves the key of file name, whose header h is hdr, and builds
// the Sealer its sealed body opens under.
func (s *shieldWrapper) sealerFor(name string, h fileHeader, hdr []byte) (*crypt.Sealer, error) {
	dek, err := s.keyFor(name, h)
	if err != nil {
		return nil, err
	}
	return crypt.NewSealer(dek, h.iv[:crypt.SealedNoncePrefixLen], hdr)
}

// WrapOpenSequential implements lsm.FileWrapper for streaming reads
// (WAL/MANIFEST recovery).
func (s *shieldWrapper) WrapOpenSequential(name string, kind lsm.FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error) {
	if !s.seals(kind) {
		return f, nil
	}
	hdr, err := readStreamHeader(name, f, headerLen)
	if err != nil {
		return nil, err
	}
	h, err := servingHeader(name, kind, hdr)
	if err != nil {
		return nil, err
	}
	return s.openStream(name, f, h)
}

// readStreamHeader reads the header at the head of stream f: its fixed
// 10-byte prefix, then the rest of the length size gives for that prefix.
func readStreamHeader(name string, f vfs.SequentialFile, size func(prefix []byte) int) ([]byte, error) {
	var fixed [10]byte
	if _, err := io.ReadFull(f, fixed[:]); err != nil {
		return nil, fmt.Errorf("core: %s: reading header: %w", name, err)
	}
	hdr := make([]byte, size(fixed[:]))
	copy(hdr, fixed[:])
	if _, err := io.ReadFull(f, hdr[len(fixed):]); err != nil {
		return nil, fmt.Errorf("core: %s: reading header: %w", name, err)
	}
	return hdr, nil
}

// openStream opens the v1 (CTR) stream body of file name, whose header h
// has been read off f.
func (s *shieldWrapper) openStream(name string, f vfs.SequentialFile, h fileHeader) (vfs.SequentialFile, error) {
	if h.version != shieldVersion {
		// Only WAL/MANIFEST recovery streams files, and both stay on v1;
		// sealed bodies need positional reads for record verification.
		return nil, fmt.Errorf("core: %s: sealed (v%d) files require positional reads", name, h.version)
	}
	dek, err := s.keyFor(name, h)
	if err != nil {
		return nil, err
	}
	r, err := crypt.NewDecryptingReader(f, dek, h.iv)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// FileDeleted implements lsm.FileWrapper: DEKs die with their files, which
// is what makes compaction-driven rotation effective (Section 5.2). The
// instance key outlives every file.
func (s *shieldWrapper) FileDeleted(name string, dekID string) {
	if s.instance {
		return
	}
	id := kds.KeyID(dekID)
	s.mu.Lock()
	if id == "" {
		id = s.names[name] // WAL, MANIFEST and orphan SST deletions carry no ID
	}
	delete(s.names, name)
	if id == "" {
		s.mu.Unlock()
		return
	}
	delete(s.deks, id)
	s.mu.Unlock()
	if s.cfg.Cache != nil {
		s.cfg.Cache.Delete(id) //nolint:errcheck // best-effort prune
	}
	if s.cfg.RevokeOnDelete {
		s.cfg.KDS.RevokeDEK(id) //nolint:errcheck // best-effort revoke
	}
}
